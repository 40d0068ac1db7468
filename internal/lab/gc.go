package lab

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store lifecycle management: an optional size bound with
// LRU-by-access eviction. Without SetMaxBytes the store is unbounded
// and the GC costs nothing (one nil check per access); with it, every
// Get hit and Put bumps the record's logical access clock, and any Put
// that pushes the store past the bound evicts least-recently-accessed
// records until it fits.
//
// Eviction is advisory, never load-bearing: an evicted record is just
// a future store miss that re-simulates, so a bound that is too tight
// degrades a warm campaign to a cold one and nothing else
// (TestEvictionNeverBreaksCampaign). The same holds for a killed
// daemon that resumes from its store: a result evicted before the
// crash costs the restart a re-simulation, never a wrong byte.

type gcState struct {
	maxBytes  int64
	bytes     int64
	clock     int64
	entries   map[string]*gcEntry // file path → entry
	evictions uint64
}

type gcEntry struct {
	size  int64
	clock int64
}

// gcMu guards gc. It is separate from any per-record state: Get and
// Put touch it once per call, which is noise next to the file IO they
// already do.
type storeGC struct {
	mu sync.Mutex
	st *gcState
}

// SetMaxBytes bounds the store's on-disk size (records of the current
// schema generation; older-generation directories are dead weight the
// bound neither counts nor removes). It scans the store once to learn
// current sizes, seeding access order from file modification times
// (oldest = evicted first), then evicts immediately if already over.
// n <= 0 removes the bound.
func (s *Store) SetMaxBytes(n int64) error {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if n <= 0 {
		s.gc.st = nil
		return nil
	}
	st := &gcState{maxBytes: n, entries: make(map[string]*gcEntry)}
	if prev := s.gc.st; prev != nil {
		st.evictions = prev.evictions
	}
	type scanned struct {
		path string
		size int64
		mod  int64
	}
	var files []scanned
	root := filepath.Join(s.dir, schemaDirName())
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") { // in-flight temp files
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // raced with a concurrent eviction or rename
		}
		files = append(files, scanned{path, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("lab: store gc scan: %w", err)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path // deterministic tie-break
	})
	for _, f := range files {
		st.clock++
		st.entries[f.path] = &gcEntry{size: f.size, clock: st.clock}
		st.bytes += f.size
	}
	s.gc.st = st
	s.evictLocked()
	return nil
}

// MaxBytes returns the configured size bound (0 = unbounded).
func (s *Store) MaxBytes() int64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.maxBytes
}

// Bytes returns the tracked on-disk size of the current-generation
// records (0 when no bound is set — the store is not scanned).
func (s *Store) Bytes() int64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.bytes
}

// Evictions returns how many records the GC has removed.
func (s *Store) Evictions() uint64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.evictions
}

// touch bumps a record's access clock (LRU recency). No-op without a
// bound.
func (s *Store) touch(path string) {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	st := s.gc.st
	if st == nil {
		return
	}
	if e, ok := st.entries[path]; ok {
		st.clock++
		e.clock = st.clock
	}
}

// account records a fresh or rewritten record of size bytes at path,
// then evicts until the store fits the bound again.
func (s *Store) account(path string, size int64) {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	st := s.gc.st
	if st == nil {
		return
	}
	st.clock++
	if e, ok := st.entries[path]; ok {
		st.bytes += size - e.size
		e.size = size
		e.clock = st.clock
	} else {
		st.entries[path] = &gcEntry{size: size, clock: st.clock}
		st.bytes += size
	}
	s.evictLocked()
}

// evictLocked removes least-recently-accessed records until the store
// fits maxBytes. Called with gc.mu held.
func (s *Store) evictLocked() {
	st := s.gc.st
	for st.bytes > st.maxBytes {
		var victimPath string
		var victim *gcEntry
		for path, e := range st.entries {
			if victim == nil || e.clock < victim.clock ||
				(e.clock == victim.clock && path < victimPath) {
				victimPath, victim = path, e
			}
		}
		os.Remove(victimPath) // a miss either way; ignore races
		st.bytes -= victim.size
		delete(st.entries, victimPath)
		st.evictions++
	}
}
