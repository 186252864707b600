package qcache

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
	"time"
)

// Warm start: the answer cache is the first thing a restarted server
// could serve from, and the cheapest — so it persists. Snapshot captures
// both tiers (the semantic tier's vectors are derived from the entries,
// so only entries are stored and the vectors are re-embedded on load),
// and WarmStart reloads them with original expiry times intact.
//
// A snapshot carries the caller's settings fingerprint. WarmStart
// refuses a snapshot whose fingerprint differs from the current one —
// the same invalidation rule the live cache applies by flushing on
// settings changes: an answer produced under a different strategy,
// model set, or RAG corpus must not be served.

// WarmEntry is one persisted cache entry.
type WarmEntry struct {
	// Query is the normalized query (the exact-tier key's query part).
	Query string `json:"query"`
	// Scope is the entry's opaque scope string.
	Scope string `json:"scope"`
	// Expires is the entry's original deadline; WarmStart keeps it, so a
	// restart never extends an answer's life.
	Expires time.Time `json:"expires"`
	// Value is the codec-encoded answer.
	Value json.RawMessage `json:"value"`
	// Grounded marks an answer retrieved from documents. Its Grounding is
	// not persisted, so once restored any document write drops it.
	Grounded bool `json:"grounded,omitempty"`
}

// WarmState is a point-in-time snapshot of the cache.
type WarmState struct {
	// Fingerprint identifies the serving settings the answers were
	// produced under. WarmStart ignores the snapshot when it differs.
	Fingerprint string `json:"fingerprint"`
	// Entries by last use, most recently used first — a hit or a store is
	// a use, whichever segment of the policy holds the entry.
	Entries []WarmEntry `json:"entries"`
}

// Snapshot captures every live entry. The cache stores values as `any`,
// so the caller supplies the encoder (the server encodes its recorded
// SSE frames + result); entries whose value doesn't encode are skipped.
func (c *Cache) Snapshot(fingerprint string, encode func(any) ([]byte, error)) *WarmState {
	st := &WarmState{Fingerprint: fingerprint}
	if c == nil {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	byUse := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		byUse = append(byUse, e)
	}
	slices.SortFunc(byUse, func(a, b *entry) int { return cmp.Compare(b.used, a.used) })
	for _, e := range byUse {
		if !now.Before(e.expires) {
			continue
		}
		raw, err := encode(e.value)
		if err != nil {
			continue
		}
		query, _, ok := strings.Cut(e.id, keySep)
		if !ok {
			continue
		}
		st.Entries = append(st.Entries, WarmEntry{
			Query:    query,
			Scope:    e.scope,
			Expires:  e.expires,
			Value:    raw,
			Grounded: e.g != nil,
		})
	}
	return st
}

// WarmStart loads a snapshot into the cache: both tiers are rebuilt
// (each entry's query re-embedded into its scope's bucket) from the
// Capacity most recently used entries that have not expired and decode,
// and the order of their last use is kept. The rest are neither decoded
// nor embedded. A fingerprint mismatch loads nothing — the snapshot was
// cut under different serving settings. It returns how many of the
// snapshot's entries the cache holds afterwards.
func (c *Cache) WarmStart(st *WarmState, fingerprint string, decode func([]byte) (any, error)) int {
	if c == nil || st == nil || st.Fingerprint != fingerprint {
		return 0
	}
	now := c.clock()
	type restore struct {
		we    *WarmEntry
		value any
	}
	var keep []restore
	for i := range st.Entries {
		if len(keep) == c.capacity {
			break
		}
		we := &st.Entries[i]
		if !now.Before(we.Expires) {
			continue
		}
		value, err := decode(we.Value)
		if err != nil {
			continue
		}
		keep = append(keep, restore{we, value})
	}
	// Back to front, so the most recently used entry is used last, as it
	// was. No more than Capacity go in, so none contends for admission.
	var stored []string
	for i := len(keep) - 1; i >= 0; i-- {
		we := keep[i].we
		var g *Grounding
		if we.Grounded {
			g = everyDoc
		}
		// A live entry wins: it is newer than the snapshot.
		if c.put(we.Query, we.Scope, keep[i].value, we.Expires, g, nil, false) {
			stored = append(stored, we.Query+keySep+we.Scope)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	restored := 0
	for _, id := range stored {
		if _, ok := c.entries[id]; ok {
			restored++
		}
	}
	return restored
}

// WriteFile persists the snapshot atomically (temp + rename).
func (st *WarmState) WriteFile(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("qcache: encode warm state: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("qcache: write warm state: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("qcache: write warm state: %w", err)
	}
	return nil
}

// ReadWarmState loads a snapshot written by WriteFile. A missing file
// returns an empty state (nothing to warm from), not an error.
func ReadWarmState(path string) (*WarmState, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &WarmState{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("qcache: read warm state: %w", err)
	}
	var st WarmState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("qcache: parse warm state: %w", err)
	}
	return &st, nil
}
