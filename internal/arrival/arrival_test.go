package arrival

import (
	"math"
	"testing"
	"time"
)

func mustGen(t *testing.T, spec string, seed uint64) *Gen {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// parseCases pins the canonical flag syntax: each input, the spec it parses
// to and the form Format renders.
var parseCases = []struct {
	in   string
	want Spec
	out  string
}{
	{"", Spec{}, "none"},
	{"none", Spec{}, "none"},
	{"poisson:50000", Spec{Kind: "poisson", Rate: 50000}, "poisson:50000"},
	{"bursty:20000", Spec{Kind: "bursty", Rate: 20000, Period: DefaultBurstyPeriod, Duty: DefaultBurstyDuty}, "bursty:20000@20ms~0.1"},
	{"bursty:20000@50ms~0.25", Spec{Kind: "bursty", Rate: 20000, Period: 50 * time.Millisecond, Duty: 0.25}, "bursty:20000@50ms~0.25"},
	{"diurnal:10000", Spec{Kind: "diurnal", Rate: 10000, Period: DefaultDiurnalPeriod, Amp: DefaultDiurnalAmp}, "diurnal:10000@100ms~0.8"},
	{"diurnal:10000@200ms~0.5", Spec{Kind: "diurnal", Rate: 10000, Period: 200 * time.Millisecond, Amp: 0.5}, "diurnal:10000@200ms~0.5"},
}

// TestParseFormatRoundTrip pins the canonical flag syntax.
func TestParseFormatRoundTrip(t *testing.T) {
	for _, c := range parseCases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if f := Format(got); f != c.out {
			t.Fatalf("Format(Parse(%q)) = %q, want %q", c.in, f, c.out)
		}
		// Round-trip: the canonical form re-parses to the same spec.
		again, err := Parse(Format(got))
		if err != nil || again != got {
			t.Fatalf("round-trip %q -> %q -> %+v (err %v), want %+v", c.in, Format(got), again, err, got)
		}
	}
}

// badSpecs are inputs Parse must reject.
var badSpecs = []string{
	"poisson", "poisson:", "poisson:-5", "poisson:0", "poisson:abc",
	"poisson:100@10ms", "uniform:100",
	"bursty:100~1.5", "bursty:100~0", "bursty:100@-5ms",
	"diurnal:100~1.0", "diurnal:100~-0.2", "diurnal:100@0s",
	":+1",           // no kind, yet a rate: not the closed-loop spec
	"bursty:1~NaN",  // NaN fails every ordered comparison, so no range holds it
	"diurnal:1~NaN", // likewise
}

func TestParseRejects(t *testing.T) {
	for _, bad := range badSpecs {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// FuzzArrivalParse: Parse never panics, and a spec it accepts is a fixed
// point of Format — Parse(Format(Parse(s))) == Parse(s).
func FuzzArrivalParse(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.in)
	}
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		again, err := Parse(Format(s))
		if err != nil || again != s {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses to %+v (err %v)", in, s, Format(s), again, err)
		}
	})
}

func TestGenRejectsClosedLoop(t *testing.T) {
	if _, err := New(Spec{}, 1); err == nil {
		t.Fatal("New accepted the closed-loop spec")
	}
}

// TestPoissonMeanAndCV checks the exponential interarrival statistics: at
// rate R the gap mean is 1e9/R ns and the coefficient of variation is 1.
func TestPoissonMeanAndCV(t *testing.T) {
	const rate = 1e6 // 1 arrival/µs => mean gap 1000ns
	g := mustGen(t, "poisson:1000000", 42)
	const n = 200000
	var prev int64
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		next := g.Next()
		if next < prev {
			t.Fatalf("arrival %d: offsets not monotone (%d < %d)", i, next, prev)
		}
		gap := float64(next - prev)
		sum += gap
		sumSq += gap * gap
		prev = next
	}
	mean := sum / n
	wantMean := 1e9 / rate
	if math.Abs(mean-wantMean)/wantMean > 0.03 {
		t.Fatalf("mean gap %.1fns, want %.1fns ±3%%", mean, wantMean)
	}
	variance := sumSq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("gap CV %.3f, want 1.0 ±0.05 (exponential)", cv)
	}
}

// TestPoissonDeterministicAndSeeded pins determinism: same seed, same
// stream; different seeds, different streams.
func TestPoissonDeterministicAndSeeded(t *testing.T) {
	a := mustGen(t, "poisson:100000", 7)
	b := mustGen(t, "poisson:100000", 7)
	c := mustGen(t, "poisson:100000", 8)
	same, diff := true, false
	for i := 0; i < 1000; i++ {
		av := a.Next()
		if av != b.Next() {
			same = false
		}
		if av != c.Next() {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestBurstyDutyCycle checks that every arrival lands inside the on-window
// and the mean rate matches the configured rate (not the burst rate).
func TestBurstyDutyCycle(t *testing.T) {
	const (
		rate   = 100000.0
		period = 10 * time.Millisecond
		duty   = 0.25
	)
	g := mustGen(t, "bursty:100000@10ms~0.25", 3)
	const n = 50000
	var last int64
	onSpan := float64(period) * duty
	for i := 0; i < n; i++ {
		at := g.Next()
		if at < last {
			t.Fatalf("arrival %d: offsets not monotone", i)
		}
		last = at
		phase := math.Mod(float64(at), float64(period))
		if phase > onSpan+1 { // +1ns slack for float→int truncation
			t.Fatalf("arrival %d at offset %dns: phase %.0fns outside on-window [0, %.0fns)", i, at, phase, onSpan)
		}
	}
	// Mean rate over the generated span ≈ configured rate.
	gotRate := float64(n) / (float64(last) / 1e9)
	if math.Abs(gotRate-rate)/rate > 0.05 {
		t.Fatalf("mean rate %.0f/s, want %.0f/s ±5%%", gotRate, rate)
	}
}

// TestDiurnalRateShape bins arrivals by period phase: the rising half-cycle
// (sin > 0) must carry more arrivals than the falling half by the ratio the
// sinusoid predicts, and the overall mean rate must match the spec.
func TestDiurnalRateShape(t *testing.T) {
	const (
		rate   = 200000.0
		period = 20 * time.Millisecond
		amp    = 0.8
	)
	g := mustGen(t, "diurnal:200000@20ms~0.8", 9)
	const n = 100000
	var peakHalf, troughHalf int
	var last int64
	for i := 0; i < n; i++ {
		at := g.Next()
		last = at
		phase := math.Mod(float64(at), float64(period)) / float64(period)
		if phase < 0.5 {
			peakHalf++
		} else {
			troughHalf++
		}
	}
	// ∫(1+A·sin) over the halves: (0.5 + A/π) vs (0.5 − A/π).
	wantRatio := (0.5 + amp/math.Pi) / (0.5 - amp/math.Pi)
	gotRatio := float64(peakHalf) / float64(troughHalf)
	if gotRatio < wantRatio*0.9 || gotRatio > wantRatio*1.1 {
		t.Fatalf("peak/trough arrival ratio %.2f, want %.2f ±10%%", gotRatio, wantRatio)
	}
	gotRate := float64(n) / (float64(last) / 1e9)
	if math.Abs(gotRate-rate)/rate > 0.05 {
		t.Fatalf("mean rate %.0f/s, want %.0f/s ±5%%", gotRate, rate)
	}
}
