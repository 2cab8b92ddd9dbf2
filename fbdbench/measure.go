package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) by linear
// interpolation between the two closest ranks. 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles(xs,
// n=4), the same rule the benchmark's acceptance check applies to repeated
// runs, so spreads printed here match the ones it computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentileLadder lists the percentiles a tail is reported at, highest
// first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile returns the highest percentile on the ladder that
// has at least ten samples beyond it in a sample of n, and false when even
// the median lacks that support (n < 20).
func supportedPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		// Integer arithmetic in tenths of a percent: n*(100-p)/100 >= 10.
		if int64(n)*int64(1000-math.Round(p*10)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// span is one timed interval around a call into a layer. Spans of one
// request share Op; Parent names the enclosing span ("" for the root).
type span struct {
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory for the traced run; a nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Op: op, Name: name, Parent: parent,
		StartUS: start.Sub(t.t0).Microseconds(),
		EndUS:   end.Sub(t.t0).Microseconds(),
	})
	t.mu.Unlock()
}

// durations returns the recorded durations (ms) of spans called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize reads benchmark outputs from paths, one run's result line
// among other lines, and prints per metric the number of runs, the median,
// the quartiles and the quartile distance as a share of the median: the
// spread each end-to-end metric's bound is checked against.
func summarize(w io.Writer, paths []string) error {
	values := make(map[string][]float64)
	for _, p := range paths {
		if err := readResults(p, values); err != nil {
			return err
		}
	}
	if len(values) == 0 {
		return fmt.Errorf("no result lines in %v", paths)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %4s %14s %14s %14s %8s\n", "metric", "runs", "median", "q1", "q3", "spread")
	for _, name := range names {
		vs := values[name]
		q1, q2, q3 := quartiles(vs)
		spread := 0.0
		if q2 != 0 {
			spread = 100 * (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "%-36s %4d %14.4f %14.4f %14.4f %7.2f%%\n", name, len(vs), q2, q1, q3, spread)
	}
	return nil
}

// readResults adds the metric values of every result line in path.
func readResults(path string, values map[string][]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var r struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' || json.Unmarshal(line, &r) != nil {
			continue // a table line or a failed run's message
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}
