package experiments

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenQuickOutput is the archived `experiments -exp all -scale quick`
// transcript. Regenerate it with
//
//	go run ./cmd/experiments -exp all -scale quick -out results/quick > results/quick_output.txt
//
// and say in CHANGES.md which numbers moved and why.
const goldenQuickOutput = "../../results/quick_output.txt"

// TestQuickOutputGolden locks every quick-scale experiment number: it
// renders the whole registry and compares it with the archived
// transcript after masking what legitimately varies from run to run —
// the per-experiment wall-time lines, durations inside notes and
// in-table timing columns (headers ending in "ms"). Any other change
// to an explanation number, a table cell or a series endpoint fails.
func TestQuickOutputGolden(t *testing.T) {
	want, err := os.ReadFile(goldenQuickOutput)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var got bytes.Buffer
	for _, e := range Registry() {
		r, err := e.Run(Params{Scale: Quick, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := r.Render(&got, ""); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		fmt.Fprintf(&got, "(%s completed in 0s)\n\n", e.ID) // as cmd/experiments prints it
	}
	g, w := maskQuickOutput(got.String()), maskQuickOutput(string(want))
	shown := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		gl, wl := lineAt(g, i), lineAt(w, i)
		if gl == wl {
			continue
		}
		t.Errorf("masked line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		if shown++; shown == 10 {
			t.Fatalf("quick-scale output diverges from %s (stopping after %d lines); regenerate it only for an intended change", goldenQuickOutput, shown)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

var (
	// wallTimeLine is the CLI's per-experiment "(fig5 completed in 1.2s)".
	wallTimeLine = regexp.MustCompile(`^\(\S+ completed in [^)]*\)$`)
	// duration matches a Go-formatted duration inside a note.
	duration = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|s)\b`)
)

// maskQuickOutput normalizes a rendered quick-scale transcript for
// comparison. It drops the wall-time lines and the output-directory
// note (the golden run writes CSVs, the test does not), replaces
// durations in notes with "<t>", and rewrites each aligned table row
// as " | "-joined cells, so a timing column whose width changes cannot
// shift the cells after it. Cells under a header ending in "ms" become
// "<t>".
func maskQuickOutput(text string) []string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if wallTimeLine.MatchString(l) || strings.Contains(l, "benchmark written to ") {
			continue
		}
		if i+1 < len(lines) && isRuleLine(lines[i+1]) {
			spans := columnSpans(lines[i+1])
			header := splitColumns(l, spans)
			var timed []bool
			for _, h := range header {
				timed = append(timed, strings.HasSuffix(h, "ms"))
			}
			out = append(out, strings.Join(header, " | "), "--")
			for i += 2; i < len(lines) && lines[i] != ""; i++ {
				cells := splitColumns(lines[i], spans)
				for c := range cells {
					if c < len(timed) && timed[c] {
						cells[c] = "<t>"
					}
				}
				out = append(out, strings.Join(cells, " | "))
			}
			i-- // let the loop see the blank line that ended the table
			continue
		}
		out = append(out, duration.ReplaceAllString(l, "<t>"))
	}
	return out
}

// isRuleLine reports whether l is an aligned table's dash separator.
func isRuleLine(l string) bool {
	return strings.HasPrefix(l, "-") && strings.Trim(l, "- ") == ""
}

// columnSpans returns the byte offset where each column of a dash rule
// starts.
func columnSpans(rule string) []int {
	var starts []int
	for i := 0; i < len(rule); i++ {
		if rule[i] == '-' && (i == 0 || rule[i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	return starts
}

// splitColumns cuts an aligned row at the column starts and trims each
// cell.
func splitColumns(l string, starts []int) []string {
	cells := make([]string, len(starts))
	for c, s := range starts {
		if s >= len(l) {
			break
		}
		end := len(l)
		if c+1 < len(starts) && starts[c+1] < end {
			end = starts[c+1]
		}
		cells[c] = strings.TrimSpace(l[s:end])
	}
	return cells
}
