package session

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// evictRef is the reference eviction the age heap replaced: a scan of every
// live session for the least (Updated, ID).
func evictRef(live map[string]time.Time) string {
	oldest := ""
	for id, at := range live {
		if oldest == "" || at.Before(live[oldest]) || at.Equal(live[oldest]) && id < oldest {
			oldest = id
		}
	}
	return oldest
}

// TestEvictionMatchesScan drives a small store and a model evicting with
// evictRef through one seeded sequence of creates, appends, deletes,
// restores and clears, on a clock that repeats and steps back, and
// requires the same live sessions after every operation: the heap evicts
// what the scan picks, equal timestamps included.
func TestEvictionMatchesScan(t *testing.T) {
	const cap = 5
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(1000, 0)
	st := testStore(func() time.Time { return now })
	st.maxSessions = cap
	live := map[string]time.Time{}
	pick := func() string {
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	evictions, ties := 0, 0
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 30:
			now = now.Add(time.Duration(rng.Intn(3)-1) * time.Second)
		case r < 55:
			if len(live) >= cap {
				victim := evictRef(live)
				for id, at := range live {
					if id != victim && at.Equal(live[victim]) {
						ties++
						break
					}
				}
				delete(live, victim)
				evictions++
			}
			live[st.Create("").ID] = now
		case r < 85 && len(live) > 0:
			id := pick()
			if _, err := st.Append(id, Message{Role: RoleUser, Content: "turn"}); err != nil {
				t.Fatal(err)
			}
			live[id] = now
		case r < 93 && len(live) > 0:
			id := pick()
			if err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		case r < 99:
			sess := Session{ID: fmt.Sprintf("r%05d", op), Updated: now.Add(time.Duration(rng.Intn(5)-2) * time.Second)}
			if st.Restore(State{Sessions: []Session{sess}}) == 1 {
				live[sess.ID] = sess.Updated
			}
		case r == 99:
			st.Clear()
			clear(live)
		}
		var got, want []string
		for _, sess := range st.List() {
			got = append(got, sess.ID)
		}
		for id := range live {
			want = append(want, id)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: store holds %v, the scan keeps %v", op, got, want)
		}
	}
	if evictions < 1000 || ties < 100 {
		t.Fatalf("%d evictions, %d among equal timestamps: the sequence no longer exercises the order", evictions, ties)
	}
}
