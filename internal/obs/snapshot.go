package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SnapshotSchema versions the machine-readable stats export. Bump it
// whenever a field changes meaning, the stall taxonomy is reordered or
// extended, or a consumer could otherwise misread an old file as a new
// one. Validate rejects foreign schemas instead of guessing.
const SnapshotSchema = 1

// BucketStat is one stall-taxonomy row of a snapshot: the bucket's
// canonical name, its cycle count, and its share of total cycles.
type BucketStat struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// CacheStat is one cache level's totals.
type CacheStat struct {
	Level    string `json:"level"`
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

// WishStat is the per-type wish-branch classification (Figures 11/13).
type WishStat struct {
	Type        string `json:"type"`
	HighCorrect uint64 `json:"high_correct"`
	HighMispred uint64 `json:"high_mispred"`
	LowCorrect  uint64 `json:"low_correct"`
	LowMispred  uint64 `json:"low_mispred"`
	LowEarly    uint64 `json:"low_early"`
	LowLate     uint64 `json:"low_late"`
	LowNoExit   uint64 `json:"low_no_exit"`
}

// Snapshot is the complete machine-readable record of one simulation:
// run identity, headline counters, the stall-taxonomy breakdown, the
// top offending branches, wish-branch classification, and cache
// totals. Field order is the JSON key order (encoding/json emits
// struct fields in declaration order), so output bytes are stable —
// the golden-file test pins them.
//
// Host-side measurements (wall clock, simulator throughput) are
// deliberately absent: a snapshot describes the simulated machine and
// must be byte-identical across re-runs.
type Snapshot struct {
	Schema  int    `json:"schema"`
	Bench   string `json:"bench"`
	Input   string `json:"input"`
	Variant string `json:"variant"`
	Machine string `json:"machine"`

	Cycles         uint64  `json:"cycles"`
	RetiredUops    uint64  `json:"retired_uops"`
	ProgUops       uint64  `json:"prog_uops"`
	FetchedUops    uint64  `json:"fetched_uops"`
	Squashed       uint64  `json:"squashed"`
	CondBranches   uint64  `json:"cond_branches"`
	MispredCondBr  uint64  `json:"mispred_cond_branches"`
	Flushes        uint64  `json:"flushes"`
	BTBMissBubbles uint64  `json:"btb_miss_bubbles"`
	UPC            float64 `json:"upc"`
	MispredPer1K   float64 `json:"mispred_per_1k_uops"`

	Stalls   []BucketStat `json:"stall_buckets"`
	Branches []BranchStat `json:"top_branches"`
	Wish     []WishStat   `json:"wish_branches,omitempty"`
	Caches   []CacheStat  `json:"caches"`
}

// Validate enforces the snapshot's structural contract: the schema is
// ours, the run is identified, and — the accounting identity — the
// stall buckets are the full canonical taxonomy and partition total
// cycles exactly. Per-branch flush cycles must fit inside the
// flush-recovery bucket (the branch list may be truncated to the top
// offenders, so ≤, not ==).
func (s *Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("obs: snapshot schema %d, want %d", s.Schema, SnapshotSchema)
	}
	if s.Bench == "" || s.Variant == "" || s.Machine == "" {
		return fmt.Errorf("obs: snapshot missing run identity (bench=%q variant=%q machine=%q)",
			s.Bench, s.Variant, s.Machine)
	}
	if s.Cycles == 0 {
		return fmt.Errorf("obs: snapshot has no cycles")
	}
	if len(s.Stalls) != int(NumBuckets) {
		return fmt.Errorf("obs: snapshot has %d stall buckets, want %d", len(s.Stalls), NumBuckets)
	}
	var sum uint64
	for i, st := range s.Stalls {
		if want := Bucket(i).String(); st.Name != want {
			return fmt.Errorf("obs: stall bucket %d named %q, want %q", i, st.Name, want)
		}
		sum += st.Cycles
	}
	if sum != s.Cycles {
		return fmt.Errorf("obs: stall buckets sum to %d cycles, want %d (accounting identity violated)",
			sum, s.Cycles)
	}
	var flushSum uint64
	for _, b := range s.Branches {
		flushSum += b.FlushCycles
	}
	if rec := s.Stalls[FlushRecovery].Cycles; flushSum > rec {
		return fmt.Errorf("obs: per-branch flush cycles (%d) exceed the flush-recovery bucket (%d)",
			flushSum, rec)
	}
	return nil
}

// WriteJSON emits the snapshot as indented JSON with stable key order,
// validating it first so an invariant-violating snapshot can never be
// exported.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
