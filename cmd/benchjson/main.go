// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can archive benchmark runs as machine-readable
// artifacts and trend tools do not need to re-parse the textual format.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson > bench.json
//	benchjson -compare [-metric ns/op] [-threshold 10] old.json new.json
//
// Each benchmark result line ("BenchmarkFoo/case-8  10  123 ns/op  ...")
// yields a metric map keyed by unit (ns/op, B/op, allocs/op, and any custom
// units such as sim-cycles/s). Repeated runs of one benchmark (go test
// -count N) fold into one record per name: the median of each metric, the
// run count, the min/max spread and the total iteration count. Context
// lines (goos, goarch, pkg, cpu) are captured into the document header.
//
// Compare mode diffs two such documents benchmark by benchmark and prints
// the per-benchmark delta of one metric. When any shared benchmark regresses
// by more than -threshold percent, benchjson exits nonzero — the CI gate
// behind the committed BENCH_*.json baselines. Direction is inferred from
// the unit: rates ("…/s") regress downward, everything else (ns/op, B/op,
// err-pct, …) regresses upward.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's record. Metrics holds the median over Runs
// runs; Min and Max hold the spread and are omitted for a single run.
// Iterations is the total over the runs.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Runs       int                `json:"runs"`
	Metrics    map[string]float64 `json:"metrics"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

type document struct {
	Context map[string]string `json:"context,omitempty"`
	Results []result          `json:"results"`
}

func main() {
	var (
		compare   = flag.Bool("compare", false, "compare two bench JSON files given as arguments instead of converting stdin")
		metric    = flag.String("metric", "ns/op", "metric to diff in -compare mode")
		threshold = flag.Float64("threshold", 10, "regression threshold in percent for -compare mode; exceeding it exits nonzero")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs exactly two file arguments (old, new)")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *metric, *threshold))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v (did you mean -compare?)", flag.Args())
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		fatalf("reading stdin: %v", err)
	}
	if len(doc.Results) == 0 {
		fatalf("no benchmark result lines found on stdin")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
}

// parse reads `go test -bench` output and returns its document, with
// repeated runs of a benchmark folded into one record.
func parse(in io.Reader) (document, error) {
	doc := document{Context: map[string]string{}, Results: []result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseResult(line); ok {
				doc.Results = append(doc.Results, r)
			}
		default:
			// "goos: linux" style context lines.
			for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
				if v, ok := strings.CutPrefix(line, key+": "); ok {
					doc.Context[key] = strings.TrimSpace(v)
				}
			}
		}
	}
	doc.Results = fold(doc.Results)
	return doc, sc.Err()
}

// fold merges records that share a name into one, in order of first
// appearance: each metric becomes the median over the records that report
// it, with its min and max; Runs and Iterations add up. A name that
// appears once keeps its record unchanged.
func fold(rs []result) []result {
	var order []string
	groups := map[string][]result{}
	for _, r := range rs {
		if _, ok := groups[r.Name]; !ok {
			order = append(order, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	out := make([]result, 0, len(order))
	for _, name := range order {
		g := groups[name]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		f := result{Name: name, Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
		values := map[string][]float64{}
		for _, r := range g {
			f.Iterations += r.Iterations
			f.Runs += max(r.Runs, 1)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		for unit, vs := range values {
			slices.Sort(vs)
			f.Metrics[unit] = median(vs)
			f.Min[unit], f.Max[unit] = vs[0], vs[len(vs)-1]
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle of sorted vs (the mean of the two middle
// values for an even count).
func median(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseResult decodes one "BenchmarkName  iters  value unit  value unit..."
// line; ok is false for lines that merely start with "Benchmark" (e.g. a
// wrapped name with the measurements on the next line).
func parseResult(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters, Runs: 1, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// loadDoc reads one bench JSON document from disk.
func loadDoc(path string) document {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatalf("%s: %v", path, err)
	}
	return doc
}

// lowerIsBetter infers the regression direction from the metric's unit:
// throughput-style rates improve upward, costs (time, bytes, error
// percentages) improve downward.
func lowerIsBetter(metric string) bool {
	return !strings.HasSuffix(metric, "/s")
}

// runCompare diffs the chosen metric between two bench documents and
// returns the process exit code: 0 when every shared benchmark is within
// the threshold, 1 when at least one regressed beyond it.
func runCompare(oldPath, newPath, metric string, threshold float64) int {
	compared, regressed := compare(os.Stdout, loadDoc(oldPath), loadDoc(newPath), metric, threshold)
	if compared == 0 {
		fatalf("no shared benchmarks with metric %q to compare", metric)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.1f%% on %s\n",
			regressed, threshold, metric)
		return 1
	}
	return 0
}

// compare writes the per-benchmark table of metric to w and returns how
// many benchmarks both documents share with the metric and how many of
// those regressed beyond threshold percent. Each document's repeated
// records fold first, so a benchmark counts once however many runs it
// has.
func compare(w io.Writer, oldDoc, newDoc document, metric string, threshold float64) (compared, regressed int) {
	oldBy := map[string]result{}
	for _, r := range fold(oldDoc.Results) {
		oldBy[r.Name] = r
	}
	newResults := fold(newDoc.Results)
	names := make([]string, 0, len(newResults))
	newBy := map[string]result{}
	for _, r := range newResults {
		newBy[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-50s %14s %14s %8s\n", "benchmark ("+metric+")", "old", "new", "delta%")
	for _, name := range names {
		o, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-50s %14s %14.4g %8s\n", name, "(new)", newBy[name].Metrics[metric], "-")
			continue
		}
		ov, ook := o.Metrics[metric]
		nv, nok := newBy[name].Metrics[metric]
		if !ook || !nok {
			fmt.Fprintf(w, "%-50s %14s %14s %8s\n", name, "(no metric)", "(no metric)", "-")
			continue
		}
		compared++
		delta := 0.0
		if ov != 0 {
			delta = (nv - ov) / ov * 100
		}
		mark := ""
		worse := delta
		if !lowerIsBetter(metric) {
			worse = -delta
		}
		if worse > threshold {
			mark = "  REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-50s %14.4g %14.4g %+8.1f%s\n", name, ov, nv, delta, mark)
	}
	var removed []string
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-50s %14s\n", name, "(removed)")
	}
	return compared, regressed
}
