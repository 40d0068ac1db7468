package journal

import (
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// Attach wires a scheduler to an open campaign journal: every
// replayed result whose key is in keys seeds the lab's memo table (so
// the resumed run re-simulates only the missing suffix), and every
// result the lab acquires from here on — fresh simulation, store hit,
// or remote backend — is journaled before any waiter observes it. It
// returns the number of results resumed from the journal. Attach never
// touches the lab's store: a result it journals is already in the
// store, if the lab has one, and a seeded key never reads it.
//
// Attach must run before the campaign starts (it sets l.OnResult).
// Journal append failures are surfaced through onErr (nil = ignored):
// a full disk must not kill a campaign that can still finish — it just
// stops being resumable past that point.
func Attach(l *lab.Lab, j *Journal, rep *Replay, keys []string, onErr func(error)) (resumed int) {
	for _, key := range keys {
		if r := rep.Results[key]; r != nil && l.Seed(key, r) {
			resumed++
		}
	}
	l.OnResult = func(k lab.Keyed, r *cpu.Result) {
		if err := j.Append(k.Key, r); err != nil && onErr != nil {
			onErr(err)
		}
	}
	return resumed
}
