package exp

// tune-sens quantifies the per-workload tuning headroom the paper
// leaves on the table: each policy knob — the compiler's N/L
// conversion thresholds (§4.2.2, "not tuned"), the confidence
// estimator's threshold and history indexing (§7) — is swept one axis
// at a time from the defaults, and the best single-axis setting is
// reported per workload. The sweep reuses the exact candidate grids
// the auto-tuner searches (compiler.TuneAxes, conf.TuneAxes), so its
// rows bound what one knob alone can buy; the joint search over all
// axes at once is cmd/wishtune, which this experiment motivates.

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// tuneSensBenches are three contrasting workloads: gzip (hammock-
// heavy, large headroom), mcf (memory-bound, little for the front end
// to win), parser (wish-loop-heavy).
var tuneSensBenches = []string{"gzip", "mcf", "parser"}

// tuneSensAxis is one knob and its candidate values (the tuner's grid
// for that knob, defaults included).
type tuneSensAxis struct {
	name string
	def  int
	vals []int
}

func tuneSensAxes() []tuneSensAxis {
	nVals, lVals := compiler.TuneAxes()
	thrVals, histVals, _ := conf.TuneAxes()
	defThr := compiler.DefaultThresholds()
	defJRS := conf.DefaultJRSConfig()
	return []tuneSensAxis{
		{"N (jump)", defThr.WishJump, nVals},
		{"L (loop)", defThr.WishLoop, lVals},
		{"jrs-threshold", defJRS.Threshold, thrVals},
		{"jrs-history", defJRS.HistoryBits, histVals},
	}
}

// tuneSensSpec builds the spec for one (bench, axis, value) point:
// the default policy with exactly one knob moved.
func tuneSensSpec(l *Lab, bench, axis string, v int) lab.Spec {
	m := config.DefaultMachine()
	thr := compiler.DefaultThresholds()
	switch axis {
	case "N (jump)":
		thr.WishJump = v
	case "L (loop)":
		thr.WishLoop = v
	case "jrs-threshold":
		m.JRS.Threshold = v
	case "jrs-history":
		m.JRS.HistoryBits = v
	}
	s := l.Spec(bench, workload.InputA, compiler.WishJumpJoinLoop, m)
	s.Thresholds = thr
	return s
}

// tuneSens declares the single-axis sensitivity table. Negative
// "vs default" is a cycle reduction; a 0.0% row means the default
// already wins that axis alone.
func tuneSens(l *Lab) *report {
	r := &report{}
	var rows []row
	for _, bench := range tuneSensBenches {
		for _, ax := range tuneSensAxes() {
			var runs []int
			for _, v := range ax.vals {
				runs = append(runs, r.run(tuneSensSpec(l, bench, ax.name, v)))
			}
			base := r.run(tuneSensSpec(l, bench, ax.name, ax.def)) // also in the grid; Warm dedupes it
			rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
				bestVal, bestCycles := ax.def, rs[base].Cycles
				for k, v := range ax.vals {
					if c := rs[runs[k]].Cycles; c < bestCycles {
						bestVal, bestCycles = v, c
					}
				}
				delta := (float64(bestCycles) - float64(rs[base].Cycles)) / float64(rs[base].Cycles)
				return []string{bench, ax.name,
					fmt.Sprintf("%d", ax.def), fmt.Sprintf("%d", bestVal),
					fmt.Sprintf("%d", bestCycles), stats.Pct(delta)}, nil
			})
		}
	}
	r.table("Per-workload single-axis tuning headroom (wish jump/join/loop binary)",
		[]string{"bench", "axis", "default", "best", "best cycles", "vs default"}, rows,
		"\nEach row moves one knob with the rest at the paper's defaults; the",
		"best joint setting is found by the auto-tuner (cmd/wishtune), which",
		"searches all axes at once with successive halving plus hill-climb.")
	return r
}
