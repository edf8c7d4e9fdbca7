package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"ulmt/internal/core"
	"ulmt/internal/prefetch"
	"ulmt/internal/table"
)

// Parameter-sensitivity sweeps: the first customization approach of
// §3.3.3 is "to use the table organizations and prefetching
// algorithms described above but to tune their parameters on an
// application basis" — NumLevels for predictable miss sequences,
// NumRows for footprint. These sweeps measure both knobs.
//
// Each sweep point is a labeled configuration (BuildConfig
// understands the labels below), so sweep runs are memoized and
// scheduled exactly like the paper's named configurations. The
// NumRows labels are relative to the app's Table 2 sizing so that
// planning a sweep never forces the sizing computation early.

// SweepApps are the applications the sweep report measures.
var SweepApps = []string{"Mcf", "MST"}

// sweepRowFactors are the NumRows scalings of SweepNumRows, as
// (label suffix, multiplier, divisor) in report order.
var sweepRowFactors = []struct {
	suffix string
	mul    int
	div    int
}{
	{"*4", 4, 1},
	{"*1", 1, 1},
	{"/4", 1, 4},
}

// SweepLevelsLabel names the Repl configuration with NumLevels = n.
func SweepLevelsLabel(n int) string { return fmt.Sprintf("Sweep/NumLevels=%d", n) }

// SweepRowsLabel names the Repl configuration whose NumRows is the
// app's sized row count scaled by the given factor suffix.
func SweepRowsLabel(suffix string) string { return "Sweep/NumRows" + suffix }

// SweepConfigs lists every sweep label in report order.
func SweepConfigs() []string {
	out := make([]string, 0, 7)
	for levels := 1; levels <= 4; levels++ {
		out = append(out, SweepLevelsLabel(levels))
	}
	for _, f := range sweepRowFactors {
		out = append(out, SweepRowsLabel(f.suffix))
	}
	return out
}

// sweepRows applies a row-factor suffix to the app's sized NumRows.
func (r *Runner) sweepRows(app, suffix string) (int, bool) {
	for _, f := range sweepRowFactors {
		if f.suffix == suffix {
			n := r.NumRows(app) * f.mul / f.div
			if n < 8 {
				n = 8
			}
			return n, true
		}
	}
	return 0, false
}

// sweepConfig builds the config for a sweep label, or reports that
// the label is not a sweep point. Sweep runs use the plain Table 3
// machine (no Conven) with a Repl ULMT, as the original §3.3.3
// sensitivity experiments do.
func (r *Runner) sweepConfig(app, label string) (core.Config, bool) {
	rest, ok := strings.CutPrefix(label, "Sweep/")
	if !ok {
		return core.Config{}, false
	}
	cfg := core.DefaultConfig()
	cfg.Seed = r.opt.Seed
	cfg.Faults = r.opt.Faults
	switch {
	case strings.HasPrefix(rest, "NumLevels="):
		levels, err := strconv.Atoi(strings.TrimPrefix(rest, "NumLevels="))
		if err != nil || levels < 1 || levels > 8 {
			return core.Config{}, false
		}
		p := table.ReplParams(r.NumRows(app))
		p.NumLevels = levels
		cfg.ULMT = prefetch.NewRepl(table.NewRepl(p, TableBase))
	case strings.HasPrefix(rest, "NumRows"):
		n, ok := r.sweepRows(app, strings.TrimPrefix(rest, "NumRows"))
		if !ok {
			return core.Config{}, false
		}
		cfg.ULMT = prefetch.NewRepl(table.NewRepl(table.ReplParams(n), TableBase))
	default:
		return core.Config{}, false
	}
	return cfg, true
}

// SweepPoint is one configuration of a parameter sweep.
type SweepPoint struct {
	App     string
	Param   string
	Value   int
	Speedup float64
	// Coverage and PushesPerMiss explain the speedup movement.
	Coverage      float64
	PushesPerMiss float64
}

// SweepNumLevels measures Repl with NumLevels 1..4 on one app.
func (r *Runner) SweepNumLevels(app string) []SweepPoint {
	base := r.Baseline(app)
	out := make([]SweepPoint, 0, 4)
	for levels := 1; levels <= 4; levels++ {
		res := r.Run(app, SweepLevelsLabel(levels))
		out = append(out, sweepPoint(app, "NumLevels", levels, res, base))
	}
	return out
}

// SweepNumRows measures Repl with the sized row count scaled by
// 1/4x, 1x and 4x on one app.
func (r *Runner) SweepNumRows(app string) []SweepPoint {
	base := r.Baseline(app)
	out := make([]SweepPoint, 0, len(sweepRowFactors))
	for _, f := range sweepRowFactors {
		n, _ := r.sweepRows(app, f.suffix)
		res := r.Run(app, SweepRowsLabel(f.suffix))
		out = append(out, sweepPoint(app, "NumRows", n, res, base))
	}
	return out
}

func sweepPoint(app, param string, value int, res, base core.Results) SweepPoint {
	ppm := 0.0
	if base.DemandMissesToMemory > 0 {
		ppm = float64(res.PushesToL2) / float64(base.DemandMissesToMemory)
	}
	return SweepPoint{
		App: app, Param: param, Value: value,
		Speedup:       res.Speedup(base),
		Coverage:      res.Coverage(base),
		PushesPerMiss: ppm,
	}
}
