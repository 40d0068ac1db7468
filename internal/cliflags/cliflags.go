// Package cliflags is the one place the CLIs register their shared
// flags. wishbench, wishsimd, wishtune, wishfuzz, and wishsim grew the
// same knobs one copy-paste at a time — worker count, result store,
// remote server, pprof — and the copies had started to drift
// (wishfuzz had no profiling, wishsim had its own pprof boilerplate).
// A flag registered here lands in every CLI that composes the group,
// with one name, one default, and one help string.
//
// Three composable groups:
//
//   - Lab: -j, -cache-dir, -v — the scheduler-shaped flags of every
//     campaign-driving command.
//   - Remote: -server — run simulations on a wishsimd daemon (or a
//     coordinator; the wire is identical).
//   - Profile: -cpuprofile, -memprofile — pprof capture with the
//     start/stop boilerplate owned here.
//
// Wire applies a Lab+Remote selection to the lab.Lab every campaign
// CLI runs its specs through: a serve.Client installed as the lab's
// Backend when -server is set, the -cache-dir store otherwise. The
// store is also what a killed process resumes from: each result is
// appended to a segment file and fsynced before anyone sees it, so a
// rerun over the same -cache-dir re-simulates only what was missing.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"

	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// Lab holds the scheduler-shaped flag values shared by campaign CLIs.
type Lab struct {
	Workers  int
	CacheDir string
	Verbose  bool
}

// RegisterLab registers -j, -cache-dir, and -v on fs
// (flag.CommandLine in the CLIs) with the canonical defaults and help
// strings.
func RegisterLab(fs *flag.FlagSet) *Lab {
	var lf Lab
	fs.IntVar(&lf.Workers, "j", runtime.NumCPU(), "max concurrent simulations")
	fs.StringVar(&lf.CacheDir, "cache-dir", lab.DefaultDir(), "persistent result store directory (empty = disabled)")
	fs.BoolVar(&lf.Verbose, "v", false, "log each simulation to stderr")
	return &lf
}

// Apply copies the scheduler-shaped selections onto sched: worker
// budget and verbose logging. Store and backend wiring live in Wire
// (or OpenStore for daemons that manage the store themselves).
func (lf *Lab) Apply(sched *lab.Lab) {
	sched.Workers = lf.Workers
	if lf.Verbose {
		sched.Log = os.Stderr
	}
}

// OpenStore opens the -cache-dir result store. It returns nil when the
// flag disables the store or opening fails; a failure is a warning on
// stderr (prefixed with the command name), never fatal — a campaign
// without a store is slower, not wrong.
func (lf *Lab) OpenStore(prefix string) *lab.Store {
	if lf.CacheDir == "" {
		return nil
	}
	store, err := lab.OpenStore(lf.CacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v (continuing without store)\n", prefix, err)
		return nil
	}
	return store
}

// Remote holds the remote-execution flag values.
type Remote struct {
	Server string
}

// RegisterRemote registers -server on fs.
func RegisterRemote(fs *flag.FlagSet) *Remote {
	var rf Remote
	fs.StringVar(&rf.Server, "server", "", "wishsimd base URL; simulations run remotely (local store disabled)")
	return &rf
}

// Wire applies the flag selections to sched.
//
// Remote mode (-server set): every simulation becomes an HTTP call to
// a wishsimd daemon (or coordinator), because the client is installed
// as sched's Backend. The daemon owns the memoization and the
// persistent store, so the local store stays off — otherwise a warm
// local cache would hide the server from this process and defeat the
// point of sharing it. The first run whose retries end in a transport
// failure (refused, reset, timed out) while its caller still waits
// fails every later run at once with the same error, so a campaign
// against a dead server fails after one retry ladder per -j slot, not
// one per spec. This stays out of serve.Client: a coordinator's
// per-worker clients must keep reaching a worker that comes back.
//
// Local mode: the -cache-dir store (when it opens) backs sched.
func Wire(sched *lab.Lab, lf *Lab, rf *Remote, prefix string) {
	lf.Apply(sched)
	if rf != nil && rf.Server != "" {
		cl := &serve.Client{Base: rf.Server}
		if lf.Verbose {
			cl.Log = os.Stderr
		}
		var down atomic.Pointer[error]
		sched.Backend = func(ctx context.Context, spec lab.Spec) (*cpu.Result, error) {
			if err := down.Load(); err != nil {
				return nil, *err
			}
			res, err := cl.Run(ctx, spec)
			var ue *url.Error
			if err != nil && ctx.Err() == nil && errors.As(err, &ue) {
				down.CompareAndSwap(nil, &err)
			}
			return res, err
		}
		fmt.Fprintf(os.Stderr, "%s: simulating remotely on %s\n", prefix, rf.Server)
		return
	}
	sched.Store = lf.OpenStore(prefix)
}

// Profile holds the pprof flag values.
type Profile struct {
	CPUProfile string
	MemProfile string
}

// RegisterProfile registers -cpuprofile and -memprofile on fs.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	var pf Profile
	fs.StringVar(&pf.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&pf.MemProfile, "memprofile", "", "write a heap profile at exit to this file")
	return &pf
}

// Start begins the selected profiles and returns the stop function to
// defer: it stops the CPU profile and writes the heap profile (after a
// GC, so the snapshot is live objects, not garbage). With neither flag
// set it is a no-op. Errors name the offending flag via prefix.
func (pf *Profile) Start(prefix string) (stop func(), err error) {
	var cpuFile *os.File
	if pf.CPUProfile != "" {
		cpuFile, err = os.Create(pf.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("%s: cpuprofile: %w", prefix, err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("%s: cpuprofile: %w", prefix, err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if pf.MemProfile != "" {
			f, ferr := os.Create(pf.MemProfile)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prefix, ferr)
				return
			}
			defer f.Close()
			runtime.GC()
			if ferr := pprof.WriteHeapProfile(f); ferr != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prefix, ferr)
			}
		}
	}, nil
}
