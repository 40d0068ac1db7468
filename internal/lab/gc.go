package lab

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store lifecycle management: an optional size bound with
// LRU-by-access eviction. Without SetMaxBytes the store is unbounded
// and the GC costs nothing (one nil check per access); with it, every
// Get hit and Put bumps the record's logical access clock, and a Put
// that takes the store's files past the bound evicts
// least-recently-accessed records, one at a time, until reclaiming the
// space they held brings the files back within it.
//
// Space is reclaimed by rewriting a segment without its dead frames
// (Bitcask's merge): its live frames are copied to the active segment
// and the segment is unlinked. A reclaim copies at most one segment's
// live bytes, which segmentBytes bounds for the segments a store
// writes. A store reclaims its own segments, and another writer's only
// once it can take that segment's lock (the writer has closed or died)
// and the segment has not grown since the store read it: a segment
// another live process appends to is never unlinked.
//
// Eviction is advisory, never load-bearing: an evicted record is just
// a future store miss that re-simulates, so a bound that is too tight
// degrades a warm campaign to a cold one and nothing else
// (TestEvictionNeverBreaksCampaign). The same holds for a killed
// daemon that resumes from its store: a result evicted before the
// crash costs the restart a re-simulation, never a wrong byte.

type gcState struct {
	maxBytes  int64
	clock     int64
	evictions uint64
	// legacy lists the per-record files of an older store layout,
	// oldest first. They are evicted before any record.
	legacy      []legacyFile
	legacyBytes int64
}

type legacyFile struct {
	path string
	size int64
	mod  int64
}

// SetMaxBytes bounds the on-disk size of the store's schema directory:
// its segments, and the per-record files an older store left there.
// Older schema generations are dead weight the bound neither counts
// nor removes. It seeds the access order — legacy files first, by
// modification time, then records by their segment's modification
// time and their offset in it (oldest = evicted first) — and evicts
// at once if the store is already over. n <= 0 removes the bound.
func (s *Store) SetMaxBytes(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.gc = nil
		return nil
	}
	legacy, err := legacyFiles(filepath.Join(s.dir, schemaDirName()))
	if err != nil {
		return fmt.Errorf("lab: store gc scan: %w", err)
	}
	st := &gcState{maxBytes: n, legacy: legacy}
	if s.gc != nil {
		st.evictions = s.gc.evictions
	}
	for _, f := range legacy {
		st.legacyBytes += f.size
	}
	rank := make(map[*segment]int, len(s.segs))
	for _, seg := range s.segs {
		if info, err := seg.f.Stat(); err == nil {
			seg.mod = info.ModTime().UnixNano()
		}
	}
	sortByAge(s.segs)
	for i, seg := range s.segs {
		rank[seg] = i
	}
	recs := make([]*record, 0, len(s.index))
	for _, e := range s.index {
		recs = append(recs, e)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.seg != b.seg {
			return rank[a.seg] < rank[b.seg]
		}
		return a.off < b.off
	})
	for _, e := range recs {
		st.clock++
		e.clock = st.clock
	}
	s.gc = st
	s.fitLocked()
	return nil
}

// legacyFiles lists the files in root's two-character shard
// directories, where older stores kept one file per record, oldest
// first.
func legacyFiles(root string) ([]legacyFile, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var files []legacyFile
	for _, de := range ents {
		if !de.IsDir() || len(de.Name()) != 2 {
			continue
		}
		shard := filepath.Join(root, de.Name())
		recs, err := os.ReadDir(shard)
		if err != nil {
			continue
		}
		for _, r := range recs {
			info, err := r.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			files = append(files, legacyFile{filepath.Join(shard, r.Name()), info.Size(), info.ModTime().UnixNano()})
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path
	})
	return files, nil
}

// MaxBytes returns the configured size bound (0 = unbounded).
func (s *Store) MaxBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gc == nil {
		return 0
	}
	return s.gc.maxBytes
}

// Bytes returns the on-disk size of the schema directory's files as
// the store tracks them (0 when no bound is set). After every Put it
// is at most MaxBytes, unless segments that other live processes write
// hold more than that.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gc == nil {
		return 0
	}
	return s.bytes + s.gc.legacyBytes
}

// Evictions returns how many records the GC has removed.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gc == nil {
		return 0
	}
	return s.gc.evictions
}

// touch bumps a record's access clock (LRU recency).
func (s *Store) touch(e *record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gc != nil {
		s.gc.clock++
		e.clock = s.gc.clock
	}
}

// fitLocked brings the store's files within the bound: it evicts the
// least-recently-accessed record it may reclaim, one at a time, until
// rewriting the segments that hold dead frames would fit, then
// rewrites them, most dead bytes first, until the files fit. With a
// Put in flight it does nothing: that Put fits the store once it is
// indexed.
func (s *Store) fitLocked() {
	st := s.gc
	if st == nil || s.pending > 0 || s.bytes+st.legacyBytes <= st.maxBytes {
		return
	}
	for _, seg := range s.segs {
		seg.reclaim = s.reclaimable(seg)
	}
	for s.bytes+st.legacyBytes > st.maxBytes {
		for s.bytes+st.legacyBytes-s.deadLocked() > st.maxBytes && s.evictLocked() {
		}
		if !s.reclaimDeadLocked() {
			return
		}
	}
}

// reclaimable reports whether the store may rewrite seg: it holds
// seg's lock — seg is its own, or seg's writer has closed or died — and
// seg holds no bytes the store has not read or written.
func (s *Store) reclaimable(seg *segment) bool {
	if !seg.locked {
		if !tryLock(seg.f) {
			return false
		}
		seg.locked = true
	}
	info, err := seg.f.Stat()
	return err == nil && info.Size() == seg.size
}

// deadLocked returns the bytes that rewriting every reclaimable
// segment would free.
func (s *Store) deadLocked() int64 {
	var dead int64
	for _, seg := range s.segs {
		if seg.reclaim {
			dead += seg.size - seg.live
		}
	}
	return dead
}

// evictLocked removes the oldest legacy file or else the
// least-recently-accessed record in a reclaimable segment, reporting
// false when there is neither.
func (s *Store) evictLocked() bool {
	st := s.gc
	if len(st.legacy) > 0 {
		f := st.legacy[0]
		st.legacy = st.legacy[1:]
		os.Remove(f.path)               // a miss either way; ignore races
		os.Remove(filepath.Dir(f.path)) // the shard directory, once empty
		st.legacyBytes -= f.size
		st.evictions++
		return true
	}
	var vh uint64
	var v *record
	for h, e := range s.index {
		if e.seg.reclaim && (v == nil || e.clock < v.clock) {
			vh, v = h, e
		}
	}
	if v == nil {
		return false
	}
	delete(s.index, vh)
	v.seg.live -= v.size
	st.evictions++
	return true
}

// reclaimDeadLocked rewrites reclaimable segments that hold dead
// bytes, most first, until the files fit the bound. It reports whether
// it rewrote any.
func (s *Store) reclaimDeadLocked() bool {
	var dirty []*segment
	for _, seg := range s.segs {
		if seg.reclaim && seg.size > seg.live {
			dirty = append(dirty, seg)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].size-dirty[i].live > dirty[j].size-dirty[j].live })
	done := false
	for _, seg := range dirty {
		if s.bytes+s.gc.legacyBytes <= s.gc.maxBytes {
			break
		}
		if s.reclaimLocked(seg) == nil {
			done = true
		} else {
			seg.reclaim = false
		}
	}
	return done
}

// reclaimLocked rewrites seg without its dead frames: its live frames
// are copied in one write to the active segment (a new one if seg was
// active), which is synced before the index moves to the copies and
// seg is unlinked. A frame that no longer checks out is dropped. Unlike
// Put, it holds the store's lock across its fsync; only a store over
// its bound pays that.
func (s *Store) reclaimLocked(seg *segment) error {
	if seg == s.active {
		s.active = nil
	}
	type liveRec struct {
		h uint64
		e *record
	}
	var live []liveRec
	for h, e := range s.index {
		if e.seg == seg {
			live = append(live, liveRec{h, e})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].e.off < live[j].e.off })
	data := make([]byte, 0, seg.live)
	kept := live[:0]
	for _, l := range live {
		n := len(data)
		data = append(data, make([]byte, l.e.size)...)
		if _, err := seg.f.ReadAt(data[n:], l.e.off); err != nil {
			return err
		}
		if _, ok := openFrame(data[n:]); !ok { // damaged since it was read
			data = data[:n]
			delete(s.index, l.h)
			seg.live -= l.e.size
			continue
		}
		kept = append(kept, l)
	}
	if len(data) > 0 {
		dst, off, err := s.appendLocked(data)
		if err != nil {
			return err
		}
		err = dst.f.Sync()
		s.pending--
		if err != nil {
			if s.active == dst {
				s.active = nil
			}
			return err
		}
		for _, l := range kept {
			l.e.seg, l.e.off = dst, off
			off += l.e.size
		}
		dst.live += int64(len(data))
	}
	// No directory fsync: a crash that undoes the unlink leaves
	// duplicates, dead bytes the next reclaim frees.
	os.Remove(filepath.Join(s.dir, schemaDirName(), seg.name))
	seg.f.Close()
	for i, x := range s.segs {
		if x == seg {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	s.bytes -= seg.size
	return nil
}
