package trace

import (
	"testing"
	"testing/quick"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	names := BenchmarkNames()
	if len(names) != 12 {
		t.Fatalf("benchmark count = %d, want the paper's 12", len(names))
	}
	for _, n := range names {
		p, ok := ps[n]
		if !ok {
			t.Errorf("missing profile %q", n)
			continue
		}
		if p.Name != n {
			t.Errorf("profile %q has Name %q", n, p.Name)
		}
		if p.MemRatio <= 0 || p.MemRatio >= 1 {
			t.Errorf("%s: MemRatio %f out of range", n, p.MemRatio)
		}
		if p.StoreRatio < 0 || p.StoreRatio > 1 {
			t.Errorf("%s: StoreRatio %f", n, p.StoreRatio)
		}
		if p.HotFrac+p.StreamFrac > 1 {
			t.Errorf("%s: fractions exceed 1", n)
		}
		if p.Streams < 1 || p.StrideBytes < 8 || p.FootprintMB < 1 {
			t.Errorf("%s: degenerate geometry %+v", n, p)
		}
		if p.SWPrefetchCoverage < 0 || p.SWPrefetchCoverage > 1 {
			t.Errorf("%s: prefetch coverage %f", n, p.SWPrefetchCoverage)
		}
	}
}

func TestFPCodesMoreStreamingThanINT(t *testing.T) {
	ps := Profiles()
	for _, fp := range []string{"swim", "applu", "lucas"} {
		for _, in := range []string{"vpr", "parser", "vortex"} {
			if ps[fp].StreamFrac <= ps[in].StreamFrac {
				t.Errorf("%s should stream more than %s", fp, in)
			}
			if ps[fp].SWPrefetchCoverage <= ps[in].SWPrefetchCoverage {
				t.Errorf("%s should have more compiler prefetching than %s", fp, in)
			}
		}
	}
}

func TestProfileForUnknown(t *testing.T) {
	if _, err := ProfileFor("quake3"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := ProfileFor("swim"); err != nil {
		t.Fatalf("swim: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ProfileFor("equake")
	a := NewSynthetic(p, 2, 99)
	b := NewSynthetic(p, 2, 99)
	var ia, ib Item
	for i := 0; i < 20000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("diverged at item %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestSeedAndCoreChangeStream(t *testing.T) {
	p, _ := ProfileFor("equake")
	base := NewSynthetic(p, 0, 1)
	seed := NewSynthetic(p, 0, 2)
	core := NewSynthetic(p, 1, 1)
	same := 0
	var a, b, c Item
	for i := 0; i < 1000; i++ {
		base.Next(&a)
		seed.Next(&b)
		core.Next(&c)
		if a == b && a == c {
			same++
		}
	}
	if same > 900 {
		t.Errorf("streams barely differ across seed/core (%d/1000 identical)", same)
	}
}

func TestAddressesStayInCoreSpace(t *testing.T) {
	p, _ := ProfileFor("swim")
	for _, core := range []int{0, 3} {
		g := NewSynthetic(p, core, 7)
		base := int64(core) * AddressSpaceStride
		limit := base + AddressSpaceStride
		var it Item
		for i := 0; i < 50000; i++ {
			g.Next(&it)
			// Prefetch targets may run a few lines past a stream segment
			// but never out of the core's space.
			if it.Addr < base || it.Addr >= limit {
				t.Fatalf("item %d address %#x outside core %d space", i, it.Addr, core)
			}
		}
	}
}

func TestMemRatioApproximatelyHonored(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 5)
	var it Item
	insts, memOps := 0, 0
	for i := 0; i < 200000; i++ {
		g.Next(&it)
		insts += it.Gap
		if it.Op != Prefetch {
			insts++
			memOps++
		} else {
			insts++ // prefetch is an instruction too
		}
	}
	got := float64(memOps) / float64(insts)
	// Prefetch instructions dilute the ratio somewhat; allow a band.
	if got < p.MemRatio*0.6 || got > p.MemRatio*1.3 {
		t.Errorf("memory ratio = %.3f, profile %.3f", got, p.MemRatio)
	}
}

func TestStoreRatioApproximatelyHonored(t *testing.T) {
	p, _ := ProfileFor("vortex")
	g := NewSynthetic(p, 0, 5)
	var it Item
	loads, stores := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&it)
		switch it.Op {
		case Load:
			loads++
		case Store:
			stores++
		}
	}
	got := float64(stores) / float64(loads+stores)
	if got < p.StoreRatio-0.05 || got > p.StoreRatio+0.05 {
		t.Errorf("store ratio = %.3f, profile %.3f", got, p.StoreRatio)
	}
}

func TestPrefetchPrecedesItsLoad(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 11)
	var it Item
	var lastPF Item
	havePF := false
	checked := 0
	for i := 0; i < 100000 && checked < 200; i++ {
		g.Next(&it)
		if it.Op == Prefetch {
			lastPF = it
			havePF = true
			continue
		}
		if havePF {
			// The prefetch reaches PrefetchDistanceLines ahead of the
			// access that follows it.
			d := lastPF.Addr - it.Addr
			if d != p.PrefetchDistanceLines*64 {
				t.Fatalf("prefetch distance = %d bytes, want %d", d, p.PrefetchDistanceLines*64)
			}
			checked++
			havePF = false
		}
	}
	if checked == 0 {
		t.Fatal("no prefetch pairs observed")
	}
}

func TestPrefetchNeverDependent(t *testing.T) {
	p, _ := ProfileFor("swim")
	g := NewSynthetic(p, 0, 13)
	var it Item
	for i := 0; i < 100000; i++ {
		g.Next(&it)
		if it.Op == Prefetch && it.Dep {
			t.Fatal("prefetch marked dependent")
		}
		if it.Op == Store && it.Dep {
			t.Fatal("store marked dependent")
		}
	}
}

func TestIntegerCodesMoreDependent(t *testing.T) {
	count := func(name string) float64 {
		p, _ := ProfileFor(name)
		g := NewSynthetic(p, 0, 3)
		var it Item
		deps, loads := 0, 0
		for i := 0; i < 100000; i++ {
			g.Next(&it)
			if it.Op == Load {
				loads++
				if it.Dep {
					deps++
				}
			}
		}
		return float64(deps) / float64(loads)
	}
	if count("parser") <= count("swim") {
		t.Error("parser (pointer code) should have more dependent loads than swim")
	}
}

func TestWordAlignment(t *testing.T) {
	p, _ := ProfileFor("gap")
	g := NewSynthetic(p, 0, 17)
	f := func(n uint16) bool {
		var it Item
		for i := 0; i <= int(n%64); i++ {
			g.Next(&it)
		}
		return it.Addr%8 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || Prefetch.String() != "prefetch" {
		t.Error("op strings")
	}
	if Op(9).String() == "" {
		t.Error("unknown op must print")
	}
}

func TestExcludedProgramsAvailableButNotInWorkloads(t *testing.T) {
	for _, name := range []string{"art", "mcf"} {
		if _, err := ProfileFor(name); err != nil {
			t.Errorf("%s must be runnable: %v", name, err)
		}
		for _, wl := range BenchmarkNames() {
			if wl == name {
				t.Errorf("%s must not be in the Table 3 pool", name)
			}
		}
	}
	if got := len(AllProgramNames()); got != 14 {
		t.Errorf("AllProgramNames = %d entries, want 14", got)
	}
}

func TestMCFIsDependencyBound(t *testing.T) {
	ps := Profiles()
	for _, other := range BenchmarkNames() {
		if ps["mcf"].DepFrac <= ps[other].DepFrac && other != "parser" {
			t.Errorf("mcf should be the most dependent (vs %s)", other)
		}
	}
	if ps["mcf"].DepFrac <= ps["parser"].DepFrac {
		t.Error("mcf should exceed even parser")
	}
}

func TestArtFootprintNearL2Cliff(t *testing.T) {
	p, _ := ProfileFor("art")
	// The footprint must sit between the paper's 2MB and 4MB cliff edges.
	if p.FootprintMB < 2 || p.FootprintMB > 4 {
		t.Errorf("art footprint %dMB misses the 2-4MB cliff", p.FootprintMB)
	}
}

// gapLoop is the inverse-CDF walk gap performed before its CDF was
// tabulated: the reference the table must match draw for draw.
func gapLoop(p Profile, r *rng) int {
	mean := 1/p.MemRatio - 1
	if mean <= 0 {
		return 0
	}
	u := r.float()
	n := 0
	q := 1 / (mean + 1)
	acc := q
	for acc < u && n < 64 {
		n++
		acc += q * pow1mp(q, n)
	}
	return n
}

// TestGapTableMatchesLoop: the tabulated gap distribution holds exactly the
// loop's running sums (as ⌊sum·2⁵³⌋), returns the loop's gap for every draw and consumes
// the random stream identically, for every profile and for one that draws
// no gaps.
func TestGapTableMatchesLoop(t *testing.T) {
	profiles := []Profile{{Name: "no-gap", MemRatio: 1}}
	for _, n := range AllProgramNames() {
		profiles = append(profiles, Profiles()[n])
	}
	for _, p := range profiles {
		g := NewSynthetic(p, 0, 7)
		if mean := 1/p.MemRatio - 1; mean > 0 {
			q := 1 / (mean + 1)
			acc := q
			for n := 0; n <= 64; n++ {
				if n > 0 {
					acc += q * pow1mp(q, n)
				}
				if want := uint64(acc * (1 << 53)); g.gapCDF[n] != want {
					t.Fatalf("%s: CDF[%d] = %d, loop sum %v (⌊·2⁵³⌋ = %d)", p.Name, n, g.gapCDF[n], acc, want)
				}
			}
		}
		ref := g.r
		for i := 0; i < 1_000_000; i++ {
			if got, want := g.gap(), gapLoop(p, &ref); got != want {
				t.Fatalf("%s: draw %d: table gap %d, loop gap %d", p.Name, i, got, want)
			}
		}
		if g.r != ref {
			t.Errorf("%s: table and loop consumed the random stream differently", p.Name)
		}
	}
}

// float returns the uniform value in [0, 1) that a u53 draw stands for:
// the draw the generator compared against probabilities before they were
// tabulated as integer thresholds.
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// floatSynthetic is the generator as it stood before its probabilities
// became integer thresholds: every draw is a float compared against the
// profile's probability, and the gap CDF is a float table. It is the
// reference the threshold draws must match item for item.
type floatSynthetic struct {
	*Synthetic
	cdf [maxGap + 1]float64
}

func newFloatSynthetic(p Profile, core int, seed int64) *floatSynthetic {
	f := &floatSynthetic{Synthetic: NewSynthetic(p, core, seed)}
	if mean := 1/p.MemRatio - 1; mean > 0 {
		q := 1 / (mean + 1)
		acc := q
		f.cdf[0] = acc
		for n := 1; n <= maxGap; n++ {
			acc += q * pow1mp(q, n)
			f.cdf[n] = acc
		}
	}
	return f
}

func (f *floatSynthetic) gap() int {
	if !f.drawGap {
		return 0
	}
	u := f.r.float()
	n := 0
	for n < maxGap && f.cdf[n] < u {
		n++
	}
	return n
}

func (f *floatSynthetic) Next(it *Item) {
	g := f.Synthetic
	if g.hasPending {
		*it = g.pending
		g.hasPending = false
		return
	}
	it.Gap = f.gap()
	it.Op = Load
	if g.r.float() < g.p.StoreRatio {
		it.Op = Store
	}
	x := g.r.float()
	switch {
	case x < g.p.HotFrac:
		it.Addr = g.base + g.r.intn(g.hotBytes)&^7
		it.Dep = it.Op == Load && g.r.float() < g.p.DepFrac
	case x < g.p.HotFrac+g.p.StreamFrac:
		it.Dep = it.Op == Load && g.r.float() < g.p.DepFrac
		it.Addr = f.streamRef(it)
	default:
		it.Addr = g.base + g.r.intn(g.foot)&^7
		it.Dep = it.Op == Load && g.r.float() < 0.85
	}
}

func (f *floatSynthetic) streamRef(it *Item) int64 {
	g := f.Synthetic
	var s *stream
	if nStore := (len(g.streams) + 2) / 3; it.Op == Store {
		s = &g.streams[g.r.intn(int64(nStore))]
	} else {
		s = &g.streams[int64(nStore)+g.r.intn(int64(len(g.streams)-nStore))]
	}
	addr := s.pos
	s.pos += g.p.StrideBytes
	if s.pos >= s.segEnd {
		g.resetStream(s)
	}
	line := addr >> 6
	if line != s.lastPF && g.p.SWPrefetchCoverage > 0 && g.r.float() < g.p.SWPrefetchCoverage {
		s.lastPF = line
		g.pending = *it
		g.pending.Addr = g.base + addr
		g.hasPending = true
		it.Gap = 0
		it.Op = Prefetch
		it.Dep = false
		return g.base + addr + g.p.PrefetchDistanceLines*64
	}
	return g.base + addr
}

// TestThresholdDrawsMatchFloatCompare: for every profile, a million items
// from the integer-threshold generator equal the float-compare reference's
// item for item, and both leave the random stream in the same state.
func TestThresholdDrawsMatchFloatCompare(t *testing.T) {
	for _, name := range AllProgramNames() {
		p := Profiles()[name]
		g, ref := NewSynthetic(p, 1, 11), newFloatSynthetic(p, 1, 11)
		var got, want Item
		for i := 0; i < 1_000_000; i++ {
			g.Next(&got)
			ref.Next(&want)
			if got != want {
				t.Fatalf("%s: item %d = %+v, float reference %+v", name, i, got, want)
			}
		}
		if g.r != ref.r {
			t.Errorf("%s: threshold and float draws left the random stream at different states", name)
		}
	}
}

// TestThresholdBoundaries checks each threshold at the two draws around
// it: k = T-1 must pass the float comparison and k = T must fail it (for
// a gap CDF entry C, k = C stays at or below the CDF and k = C+1 exceeds
// it while C+1 is still a 53-bit draw). A profile with zero and unit
// probabilities covers the ends.
func TestThresholdBoundaries(t *testing.T) {
	below := func(k uint64, p float64) bool { return float64(k)/(1<<53) < p }
	profiles := []Profile{{Name: "ends", MemRatio: 0.5, StoreRatio: 0, HotFrac: 1, Streams: 1}}
	for _, n := range AllProgramNames() {
		profiles = append(profiles, Profiles()[n])
	}
	for _, p := range profiles {
		g := NewSynthetic(p, 0, 1)
		for _, c := range []struct {
			what string
			p    float64
			t    uint64
		}{
			{"StoreRatio", p.StoreRatio, g.storeT},
			{"HotFrac", p.HotFrac, g.hotT},
			{"HotFrac+StreamFrac", p.HotFrac + p.StreamFrac, g.hotStreamT},
			{"DepFrac", p.DepFrac, g.depT},
			{"SWPrefetchCoverage", p.SWPrefetchCoverage, g.swpfT},
			{"pointer-chase dependence", chaseDep, g.chaseT},
		} {
			if c.t > 0 && !below(c.t-1, c.p) {
				t.Errorf("%s %s: k = T-1 = %d fails k/2⁵³ < %v", p.Name, c.what, c.t-1, c.p)
			}
			if c.t < 1<<53 && below(c.t, c.p) {
				t.Errorf("%s %s: k = T = %d passes k/2⁵³ < %v", p.Name, c.what, c.t, c.p)
			}
			if (c.t > 0) != (c.p > 0) {
				t.Errorf("%s %s: threshold %d for probability %v", p.Name, c.what, c.t, c.p)
			}
		}
		above := func(k uint64, cdf float64) bool { return cdf < float64(k)/(1<<53) }
		ref := newFloatSynthetic(p, 0, 1)
		for n, c := range g.gapCDF {
			if cdf := ref.cdf[n]; above(c, cdf) || c+1 < 1<<53 && !above(c+1, cdf) {
				t.Errorf("%s: gap CDF[%d] = %d does not split draws at %v", p.Name, n, c, cdf)
			}
		}
	}
}
