package cpu

// storeTab maps in-flight store word-addresses to their youngest
// fetch-order writer: the open-addressed replacement for the Go map
// the rename stage used to hit on every load and store. Capacity is
// fixed at construction to twice the window size (every live entry is
// a distinct word address of an in-flight guarded store, so occupancy
// never exceeds half), which makes reset a bulk clear instead of a
// fresh allocation on every flush.
//
// Deletion uses backward-shift compaction rather than tombstones, so
// long flush-free stretches cannot degrade probing. The table is never
// iterated; lookup order cannot leak into simulation results.
type storeTab struct {
	keys []uint64
	vals []uid // 0 = empty slot
	mask uint64
	n    int
}

func newStoreTab(window int) *storeTab {
	size := 64
	for size < 2*window {
		size *= 2
	}
	return &storeTab{
		keys: make([]uint64, size),
		vals: make([]uid, size),
		mask: uint64(size - 1),
	}
}

// slot is the ideal probe start for key (Fibonacci mixing: word
// addresses are dense and low-entropy in the low bits).
func (t *storeTab) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// get returns the writer recorded for key, or 0.
func (t *storeTab) get(key uint64) uid {
	i := t.slot(key)
	for {
		if t.vals[i] == 0 {
			return 0
		}
		if t.keys[i] == key {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// put records u as the writer for key, replacing any previous entry.
func (t *storeTab) put(key uint64, u uid) {
	i := t.slot(key)
	for {
		if t.vals[i] == 0 {
			t.keys[i], t.vals[i] = key, u
			t.n++
			if 2*t.n > len(t.vals) {
				panic("cpu: store table over half full; window invariant broken")
			}
			return
		}
		if t.keys[i] == key {
			t.vals[i] = u
			return
		}
		i = (i + 1) & t.mask
	}
}

// del removes key's entry if it still records u (a younger store to
// the same word may have replaced it).
func (t *storeTab) del(key uint64, u uid) {
	i := t.slot(key)
	for {
		if t.vals[i] == 0 {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & t.mask
	}
	if t.vals[i] != u {
		return
	}
	t.vals[i] = 0
	t.n--
	// Backward-shift the rest of the cluster: an entry at j moves into
	// the hole at i unless its ideal slot lies cyclically within (i, j].
	j := i
	for {
		j = (j + 1) & t.mask
		if t.vals[j] == 0 {
			return
		}
		k := t.slot(t.keys[j])
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			t.vals[j] = 0
			i = j
		}
	}
}

// reset bulk-clears the table (flush recovery). Keys need no clearing:
// an empty slot is identified by its zero value alone.
func (t *storeTab) reset() {
	if t.n == 0 {
		return
	}
	clear(t.vals)
	t.n = 0
}
