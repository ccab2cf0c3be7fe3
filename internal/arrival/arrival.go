// Package arrival models open-system workload arrival processes: seeded,
// deterministic streams of request arrival times that turn the harness's
// closed-loop workers (issue ops back-to-back) into open-loop servers
// (admit ops when the arrival process delivers them). The difference is the
// whole point of the service regime: a closed loop hides queueing delay —
// a slow server just issues fewer ops — while an open loop keeps producing
// arrivals at the configured rate, so a server that falls behind builds a
// backlog and the per-op modeled latency (completion time − arrival time)
// grows without bound. An SMR stall under open load therefore has a
// p99/p999 signature, not just a throughput dip.
//
// Three process kinds form the registry (a third workload axis beside the
// scenario registry's KeyDist × OpMix):
//
//   - poisson: memoryless arrivals at a constant mean rate — the classic
//     M/G/k service model.
//   - bursty: on/off modulation. Arrivals come only during the first
//     Duty fraction of each Period, at Rate/Duty — so the mean rate is
//     still Rate but the burst intensity is 1/Duty times the mean (the
//     default Duty of 0.1 is the "10× burst").
//   - diurnal: a sinusoidal rate curve, Rate·(1 + Amp·sin(2πt/Period)),
//     generated by thinning — the slow daily swell compressed to
//     benchmark scale.
//
// Specs have a canonical flag syntax (Parse/Format round-trip):
//
//	poisson:RATE
//	bursty:RATE@PERIOD~DUTY
//	diurnal:RATE@PERIOD~AMP
//
// where RATE is per-worker arrivals/second and PERIOD is a Go duration.
// Generators (New) are seeded and deterministic: the same spec and seed
// produce the same arrival-offset stream, so trials remain reproducible
// modulo host scheduling.
package arrival

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spec is one parsed arrival process. The zero Spec (empty Kind) means
// closed-loop: no arrival process, workers issue ops back-to-back.
type Spec struct {
	// Kind is "poisson", "bursty" or "diurnal"; empty means closed-loop.
	Kind string
	// Rate is the mean arrival rate in arrivals per second per worker.
	Rate float64
	// Period is the modulation period (bursty, diurnal).
	Period time.Duration
	// Duty is the bursty on-window fraction of each period in (0, 1]; the
	// on-window arrival rate is Rate/Duty.
	Duty float64
	// Amp is the diurnal amplitude in [0, 1): the rate swings between
	// Rate·(1−Amp) and Rate·(1+Amp).
	Amp float64
}

// Defaults used when the flag syntax omits the modulation parameters.
const (
	// DefaultBurstyPeriod and DefaultBurstyDuty make "bursty:RATE" a 10×
	// burst: all of each 20ms period's arrivals land in its first 2ms.
	DefaultBurstyPeriod = 20 * time.Millisecond
	DefaultBurstyDuty   = 0.1
	// DefaultDiurnalPeriod and DefaultDiurnalAmp give "diurnal:RATE" a
	// pronounced swell (rate swinging ±80%) fast enough to complete a few
	// cycles inside a benchmark-scale window.
	DefaultDiurnalPeriod = 100 * time.Millisecond
	DefaultDiurnalAmp    = 0.8
)

// kinds is the registry: kind name → flag syntax, for -list enumeration.
var kinds = map[string]string{
	"poisson": "poisson:RATE",
	"bursty":  "bursty:RATE@PERIOD~DUTY",
	"diurnal": "diurnal:RATE@PERIOD~AMP",
}

// Names lists the registered process kinds in sorted order, mirroring
// bench.Scenarios() / smr.Names() for axis enumeration.
func Names() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Syntax returns the flag syntax of a registered kind ("" if unknown).
func Syntax(kind string) string { return kinds[kind] }

// IsZero reports whether the spec is the closed-loop (no-process) spec.
func (s Spec) IsZero() bool { return s.Kind == "" }

// Validate checks a non-zero spec's parameters.
func (s Spec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if _, ok := kinds[s.Kind]; !ok {
		return fmt.Errorf("arrival: unknown kind %q (have %v)", s.Kind, Names())
	}
	if s.Rate <= 0 || math.IsInf(s.Rate, 0) || math.IsNaN(s.Rate) {
		return fmt.Errorf("arrival: %s: rate must be a positive finite arrivals/sec (got %v)", s.Kind, s.Rate)
	}
	switch s.Kind {
	case "bursty":
		if s.Period <= 0 {
			return fmt.Errorf("arrival: bursty: period must be positive (got %v)", s.Period)
		}
		if !(s.Duty > 0 && s.Duty <= 1) { // NaN fails too
			return fmt.Errorf("arrival: bursty: duty must be in (0, 1] (got %v)", s.Duty)
		}
	case "diurnal":
		if s.Period <= 0 {
			return fmt.Errorf("arrival: diurnal: period must be positive (got %v)", s.Period)
		}
		if !(s.Amp >= 0 && s.Amp < 1) { // NaN fails too
			return fmt.Errorf("arrival: diurnal: amplitude must be in [0, 1) (got %v)", s.Amp)
		}
	}
	return nil
}

// Parse parses the canonical flag syntax. "" and "none" parse to the zero
// (closed-loop) spec. Omitted modulation parameters take the defaults.
func Parse(str string) (Spec, error) {
	str = strings.TrimSpace(str)
	if str == "" || str == "none" {
		return Spec{}, nil
	}
	kind, rest, ok := strings.Cut(str, ":")
	if !ok {
		return Spec{}, fmt.Errorf("arrival: %q: want KIND:RATE[@PERIOD][~PARAM] (kinds: %s)", str, strings.Join(Names(), ", "))
	}
	if _, ok := kinds[kind]; !ok {
		// Validate passes an empty kind as the closed-loop spec, which a
		// rate after the colon contradicts.
		return Spec{}, fmt.Errorf("arrival: %q: unknown kind %q (have %v)", str, kind, Names())
	}
	s := Spec{Kind: kind}
	// The ~PARAM suffix binds rightmost, then @PERIOD.
	var param string
	rest, param, _ = cutLast(rest, "~")
	var periodStr string
	rest, periodStr, _ = cutLast(rest, "@")
	rate, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return Spec{}, fmt.Errorf("arrival: %q: bad rate %q", str, rest)
	}
	s.Rate = rate
	if periodStr != "" {
		p, err := time.ParseDuration(periodStr)
		if err != nil || p <= 0 {
			return Spec{}, fmt.Errorf("arrival: %q: bad period %q", str, periodStr)
		}
		s.Period = p
	}
	switch kind {
	case "bursty":
		if s.Period == 0 {
			s.Period = DefaultBurstyPeriod
		}
		s.Duty = DefaultBurstyDuty
		if param != "" {
			if s.Duty, err = strconv.ParseFloat(param, 64); err != nil {
				return Spec{}, fmt.Errorf("arrival: %q: bad duty %q", str, param)
			}
		}
	case "diurnal":
		if s.Period == 0 {
			s.Period = DefaultDiurnalPeriod
		}
		s.Amp = DefaultDiurnalAmp
		if param != "" {
			if s.Amp, err = strconv.ParseFloat(param, 64); err != nil {
				return Spec{}, fmt.Errorf("arrival: %q: bad amplitude %q", str, param)
			}
		}
	case "poisson":
		if periodStr != "" || param != "" {
			return Spec{}, fmt.Errorf("arrival: %q: poisson takes only a rate", str)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// Format renders the spec in the canonical flag syntax; the zero spec
// renders as "none". Parse(Format(s)) round-trips any valid spec.
func Format(s Spec) string {
	if s.IsZero() {
		return "none"
	}
	rate := strconv.FormatFloat(s.Rate, 'g', -1, 64)
	switch s.Kind {
	case "bursty":
		return fmt.Sprintf("bursty:%s@%v~%s", rate, s.Period, strconv.FormatFloat(s.Duty, 'g', -1, 64))
	case "diurnal":
		return fmt.Sprintf("diurnal:%s@%v~%s", rate, s.Period, strconv.FormatFloat(s.Amp, 'g', -1, 64))
	default:
		return fmt.Sprintf("%s:%s", s.Kind, rate)
	}
}

// Gen is one worker's deterministic arrival-time generator: successive Next
// calls return the monotone non-decreasing absolute arrival offsets, in
// nanoseconds since the trial's window origin. Generators are not safe for
// concurrent use; each worker owns one.
type Gen struct {
	spec Spec
	rng  uint64
	// t is the cumulative process clock in float ns: wall offset for
	// poisson/diurnal, cumulative on-time for bursty (mapped to wall time
	// in Next).
	t float64
	// Cached per-spec constants, in per-ns / ns units.
	ratePerNs float64 // poisson: mean; bursty: on-window; diurnal: peak
	periodNs  float64
	onSpanNs  float64 // bursty: Duty × Period
}

// New builds a generator for a non-zero spec. The seed selects the RNG
// stream; 0 is a valid seed (remapped internally).
func New(s Spec, seed uint64) (*Gen, error) {
	if s.IsZero() {
		return nil, fmt.Errorf("arrival: cannot build a generator for the closed-loop spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &Gen{spec: s, rng: splitmix64(seed)}
	if g.rng == 0 {
		g.rng = 0x9e3779b97f4a7c15
	}
	g.periodNs = float64(s.Period)
	switch s.Kind {
	case "poisson":
		g.ratePerNs = s.Rate / 1e9
	case "bursty":
		g.ratePerNs = s.Rate / s.Duty / 1e9
		g.onSpanNs = g.periodNs * s.Duty
	case "diurnal":
		g.ratePerNs = s.Rate * (1 + s.Amp) / 1e9
	}
	return g, nil
}

// Spec returns the spec the generator was built from.
func (g *Gen) Spec() Spec { return g.spec }

// splitmix64 finalizes the seed so adjacent worker seeds land on
// well-separated xorshift streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform returns the next RNG draw in [0, 1).
func (g *Gen) uniform() float64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return float64(g.rng>>11) / (1 << 53)
}

// expGap draws one exponential interarrival gap at ratePerNs.
func (g *Gen) expGap(ratePerNs float64) float64 {
	// uniform is in [0, 1), so 1−u is in (0, 1] and the log is finite.
	return -math.Log1p(-g.uniform()) / ratePerNs
}

// Next returns the next arrival's offset in nanoseconds since the window
// origin. Offsets are monotone non-decreasing and unbounded: the process
// never ends, callers stop drawing when the trial does.
func (g *Gen) Next() int64 {
	switch g.spec.Kind {
	case "bursty":
		// Homogeneous arrivals at the on-window rate in on-time
		// coordinates, mapped to wall time by splicing the off windows in:
		// on-time advances only during the first Duty of each period.
		g.t += g.expGap(g.ratePerNs)
		cycles := math.Floor(g.t / g.onSpanNs)
		return int64(cycles*g.periodNs + (g.t - cycles*g.onSpanNs))
	case "diurnal":
		// Thinning: candidates at the peak rate, accepted with probability
		// λ(t)/λmax. Rejected candidates still advance the clock, which is
		// what makes the accepted stream a nonhomogeneous Poisson process.
		for {
			g.t += g.expGap(g.ratePerNs)
			frac := (1 + g.spec.Amp*math.Sin(2*math.Pi*g.t/g.periodNs)) / (1 + g.spec.Amp)
			if g.uniform() < frac {
				return int64(g.t)
			}
		}
	default: // poisson
		g.t += g.expGap(g.ratePerNs)
		return int64(g.t)
	}
}
