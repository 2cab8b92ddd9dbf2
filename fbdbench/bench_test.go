package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same data.
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{5, 1}, 3, 0, 3, 6},
		{[]float64{2.5, 9, 4, 7.5, 1, 3, 8}, 4, 2.5, 4, 8},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"fbdsim/internal/ambcache.(*Cache).Lookup":   "ambcache",
		"fbdsim/internal/cpu.(*Core).Tick.func1":     "cpu",
		"fbdsim/internal/addrmap.(*Mapper).Decode":   "addrmap",
		"fbdsim/internal/sweep.Run.func2.1":          "sweep",
		"fbdsim/pkg/fbdclient.(*Client).do":          "fbdclient",
		"fbdsim/internal/stats.(*Histogram).Observe": "",
		"fbdsim.Run":                                       "",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).Load":           "runtime",
		"net/http.(*conn).serve":                           "http",
		"net/http/httptest.(*Server).wrap.func1":           "http",
		"encoding/json.(*decodeState).object":              "json",
		"runtime/pprof.(*profileBuilder).addCPUData":       "",
		"sync.(*Mutex).Lock":                               "",
		"fbdsim/internal/trace.(*Synthetic).Next":          "trace",
		"fbdsim/internal/stats.Max[go.shape.int64]":        "",
		"fbdsim/internal/memtrace.Sum[go.shape.*uint8_0]":  "memtrace",
		"fbdsim/internal/simserver.(*Server).admit":        "simserver",
		"fbdsim/internal/simserver.(*Server).admit-range1": "simserver",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, msg []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(msg))))
	b.Write(msg)
}

func (b *pb) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(field, p)
}

func TestSelfShares(t *testing.T) {
	var p pb
	for _, s := range []string{"", "fbdsim/internal/ambcache.(*Cache).Lookup", "runtime.mallocgc", "fbdsim/internal/cpu.(*Core).Tick", "main.main"} {
		p.bytesField(fieldProfileStrings, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.varint(fieldFunctionID, id)
		f.varint(fieldFunctionName, id)
		p.bytesField(fieldProfileFunction, f.Bytes())
	}
	// Location 1 inlines ambcache (innermost) into cpu; location 2 is
	// runtime; location 3 is main.
	for _, loc := range []struct {
		id    uint64
		funcs []uint64
	}{{1, []uint64{1, 3}}, {2, []uint64{2}}, {3, []uint64{4}}} {
		var l pb
		l.varint(fieldLocationID, loc.id)
		for _, fn := range loc.funcs {
			var line pb
			line.varint(fieldLineFunction, fn)
			l.bytesField(fieldLocationLine, line.Bytes())
		}
		p.bytesField(fieldProfileLocation, l.Bytes())
	}
	// Samples: 6 in ambcache (leaf 1), 3 in runtime (leaf 2, called from
	// 3), 1 in main. Both packed and unpacked encodings occur in real
	// profiles.
	for _, s := range []struct {
		locs   []uint64
		count  uint64
		packed bool
	}{{[]uint64{1, 3}, 6, true}, {[]uint64{2, 3}, 3, false}, {[]uint64{3}, 1, false}} {
		var sm pb
		if s.packed {
			sm.packed(fieldSampleLocation, s.locs...)
			sm.packed(fieldSampleValue, s.count, s.count*10_000_000)
		} else {
			for _, l := range s.locs {
				sm.varint(fieldSampleLocation, l)
			}
			sm.varint(fieldSampleValue, s.count)
			sm.varint(fieldSampleValue, s.count*10_000_000)
		}
		p.bytesField(fieldProfileSample, sm.Bytes())
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	shares, err := selfShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ambcache": 60, "runtime": 30, "cpu": 0}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], w)
		}
	}
	if len(shares) != len(layers) {
		t.Errorf("got %d layers, want %d", len(shares), len(layers))
	}
	if _, err := selfShares([]byte("not a profile")); err == nil {
		t.Error("selfShares accepted garbage")
	}
}

// requestList renders the first n requests of a workload for seed.
func requestList(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	var reqs []any
	if workload == wlServeMixed {
		g := newServeGen(seed)
		for _, r := range g.calibration() {
			reqs = append(reqs, r)
		}
		for i := 0; i < n; i++ {
			reqs = append(reqs, g.interactive.next(), g.batch.next())
		}
	} else {
		g, err := newSimGen(workload, seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, g.priming())
		for i := 0; i < n; i++ {
			reqs = append(reqs, g.next())
		}
	}
	b, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRequestListsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := requestList(t, w, 7, 500), requestList(t, w, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w)
		}
		if c := requestList(t, w, 8, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

func TestServeRequestsShape(t *testing.T) {
	g := newServeGen(3)
	budgets := make(map[int64]bool)
	repeats := 0
	const n = 5000
	for i := 0; i < n; i++ {
		r := g.interactive.next()
		if r.Class != classAnalytic || r.Job.Fidelity != classAnalytic {
			t.Fatalf("interactive request %d is %+v", i, r)
		}
		if r.Repeat {
			repeats++
			if !budgets[r.Job.MaxInsts] {
				t.Fatalf("request %d repeats budget %d never sent", i, r.Job.MaxInsts)
			}
			continue
		}
		if budgets[r.Job.MaxInsts] {
			t.Fatalf("request %d reuses budget %d", i, r.Job.MaxInsts)
		}
		budgets[r.Job.MaxInsts] = true
	}
	if repeats < n/20 || repeats > n/5 {
		t.Errorf("%d repeats in %d queries, want about one in %d", repeats, n, repeatOneIn)
	}
	kinds := make(map[string]int)
	for i := 0; i < 3*batchKinds; i++ {
		r := g.batch.next()
		kinds[r.Class]++
		if r.Class == classSweep && len(r.Sweep.Configs)*len(r.Sweep.Seeds) != sweepPoints {
			t.Errorf("sweep has %d configs × %d seeds, want %d points", len(r.Sweep.Configs), len(r.Sweep.Seeds), sweepPoints)
		}
	}
	for _, c := range []string{classCycle, classSampled, classSweep} {
		if kinds[c] != 3 {
			t.Errorf("batch cycle sent %d %s requests, want 3", kinds[c], c)
		}
	}
}

func TestChecksetMatchesRequests(t *testing.T) {
	cs, err := loadCheckset()
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range checkRequests() {
		if got, _ := json.Marshal(cs[i].simRequest); string(got) != string(mustJSON(t, req)) {
			t.Errorf("check case %d is %s, want %s", i, got, mustJSON(t, req))
		}
		if len(cs[i].Digest) != 64 {
			t.Errorf("check case %d has digest %q", i, cs[i].Digest)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSummarize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.txt")
	var runs strings.Builder
	for _, v := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"} {
		runs.WriteString("# a table line\n")
		runs.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"op_ms_p50":{"value":` + v + `,"unit":"ms"}}}` + "\n")
	}
	if err := os.WriteFile(path, []byte(runs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	// Quartiles 2.75 and 8.25 around the median 5.5: spread 100%.
	want := "op_ms_p50                              10         5.5000         2.7500         8.2500  100.00%"
	if !strings.Contains(out.String(), want) {
		t.Errorf("summary:\n%s\nwant a line\n%s", out.String(), want)
	}
	if err := summarize(&out, []string{filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("summarize accepted a missing file")
	}
}
