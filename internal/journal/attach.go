package journal

import (
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// Attach wires a scheduler to an open journal: every replayed result
// whose key is in keys seeds the lab's memo table (so the resumed run
// re-simulates only the missing suffix), and every result the lab
// acquires from here on — fresh simulation, store hit, or remote
// backend — is journaled before any waiter observes it. A nil keys
// seeds every replayed result: the tuner's adaptive key set and a
// daemon's open-ended one are not known up front. It returns the
// number of results resumed from the journal.
//
// With a store on the lab, a replayed result the store lacks is
// written back, so later processes without the journal still find it.
// The store's size bound may evict it again at any time: a seeded key
// never reads the store, so an eviction costs some later process a
// re-simulation, never a resume.
//
// Attach must run before the campaign starts (it sets l.OnResult).
// Journal append failures are surfaced through onErr (nil = ignored):
// a full disk must not kill a campaign that can still finish — it just
// stops being resumable past that point.
func Attach(l *lab.Lab, j *Journal, rep *Replay, keys []string, onErr func(error)) (resumed int) {
	seed := func(key string, r *cpu.Result) {
		if l.Seed(key, r) {
			resumed++
		}
		if l.Store != nil && l.Store.Get(key) == nil {
			l.Store.Put(key, r) //nolint:errcheck // the memo table already has it
		}
	}
	if keys == nil {
		for key, r := range rep.Results {
			seed(key, r)
		}
	}
	for _, key := range keys {
		if r := rep.Results[key]; r != nil {
			seed(key, r)
		}
	}
	l.OnResult = func(k lab.Keyed, r *cpu.Result) {
		if err := j.Append(k.Key, r); err != nil && onErr != nil {
			onErr(err)
		}
	}
	return resumed
}
