package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseResult(t *testing.T) {
	line := "BenchmarkSystemRun/stall-heavy 15 81724204 ns/op 5300168 sim-cycles/s 4226069 B/op 128624 allocs/op"
	r, ok := parseResult(line)
	if !ok {
		t.Fatalf("parseResult rejected %q", line)
	}
	if r.Name != "BenchmarkSystemRun/stall-heavy" || r.Iterations != 15 {
		t.Fatalf("parsed %+v", r)
	}
	want := map[string]float64{
		"ns/op": 81724204, "sim-cycles/s": 5300168, "B/op": 4226069, "allocs/op": 128624,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseResultRejectsPartialLines(t *testing.T) {
	for _, line := range []string{
		"BenchmarkWrappedName",          // name only, metrics on next line
		"BenchmarkOdd 10 123",           // value without unit
		"BenchmarkBadIters x 123 ns/op", // non-numeric iteration count
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("parseResult accepted %q", line)
		}
	}
}

// countThree is `go test -count 3` output: three runs of one benchmark
// between two single-run ones.
const countThree = `goos: linux
pkg: fbdsim
BenchmarkA 10 100 ns/op
BenchmarkX 4 300 ns/op 9 allocs/op
BenchmarkX 5 100 ns/op 7 allocs/op
BenchmarkX 6 200 ns/op 8 allocs/op
BenchmarkB 20 50 ns/op
`

func TestParseFoldsRepeatedRuns(t *testing.T) {
	doc, err := parse(strings.NewReader(countThree))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range doc.Results {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, ","); got != "BenchmarkA,BenchmarkX,BenchmarkB" {
		t.Fatalf("records %s, want one per name in first-appearance order", got)
	}
	x := doc.Results[1]
	if x.Runs != 3 || x.Iterations != 15 {
		t.Errorf("runs %d iterations %d, want 3 and 15", x.Runs, x.Iterations)
	}
	want := map[string][3]float64{"ns/op": {200, 100, 300}, "allocs/op": {8, 7, 9}}
	for unit, w := range want {
		if x.Metrics[unit] != w[0] || x.Min[unit] != w[1] || x.Max[unit] != w[2] {
			t.Errorf("%s: median %v min %v max %v, want %v", unit, x.Metrics[unit], x.Min[unit], x.Max[unit], w)
		}
	}
	if a := doc.Results[0]; a.Runs != 1 || a.Min != nil || a.Max != nil {
		t.Errorf("single run folded to %+v, want runs 1 and no spread", a)
	}
	if got := median([]float64{1, 2, 4, 10}); got != 3 {
		t.Errorf("median of an even count = %v, want 3", got)
	}
}

// TestCompareCountsRepeatedRunsOnce: a benchmark run three times regresses
// once, on its median, with one table row.
func TestCompareCountsRepeatedRunsOnce(t *testing.T) {
	oldDoc, err := parse(strings.NewReader("BenchmarkX 1 100 ns/op\nBenchmarkX 1 100 ns/op\nBenchmarkX 1 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	newDoc := document{Results: []result{
		{Name: "BenchmarkX", Iterations: 1, Metrics: map[string]float64{"ns/op": 150}},
		{Name: "BenchmarkX", Iterations: 1, Metrics: map[string]float64{"ns/op": 130}},
		{Name: "BenchmarkX", Iterations: 1, Metrics: map[string]float64{"ns/op": 500}},
	}}
	var out bytes.Buffer
	compared, regressed := compare(&out, oldDoc, newDoc, "ns/op", 10)
	if compared != 1 || regressed != 1 {
		t.Fatalf("compared %d regressed %d, want 1 and 1\n%s", compared, regressed, out.String())
	}
	if n := strings.Count(out.String(), "REGRESSION"); n != 1 {
		t.Errorf("%d REGRESSION rows, want 1\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "150") {
		t.Errorf("table does not show the median 150\n%s", out.String())
	}
}

// TestCompareListsRemovedSorted: benchmarks missing from the new document
// are listed by name, in the same order on every run. Map iteration order
// varies between runs, so the comparison repeats.
func TestCompareListsRemovedSorted(t *testing.T) {
	var oldDoc document
	for _, name := range []string{"BenchmarkE", "BenchmarkC", "BenchmarkA", "BenchmarkD", "BenchmarkB"} {
		oldDoc.Results = append(oldDoc.Results, result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": 100}})
	}
	newDoc := document{Results: []result{{Name: "BenchmarkC", Iterations: 1, Metrics: map[string]float64{"ns/op": 100}}}}
	want := []string{"BenchmarkA", "BenchmarkB", "BenchmarkD", "BenchmarkE"}
	for i := 0; i < 50; i++ {
		var out bytes.Buffer
		compare(&out, oldDoc, newDoc, "ns/op", 10)
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasSuffix(line, "(removed)") {
				got = append(got, strings.Fields(line)[0])
			}
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d: removed rows %v, want %v\n%s", i, got, want, out.String())
		}
	}
}
