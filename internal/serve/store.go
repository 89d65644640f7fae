package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store publishes the live Snapshot to concurrent readers. Readers Load
// the pointer once per request and see a fully consistent view for the
// whole request; Install swaps the pointer atomically, so a reload is
// zero-downtime by construction — there is no moment when a request can
// observe a partial or absent snapshot.
type Store struct {
	cur   atomic.Pointer[Snapshot]
	swaps atomic.Uint64

	mu   sync.Mutex // serializes Install/Rollback so cur tracks the ring's newest entry
	hist snapHistory
}

// StoreOptions tunes a Store beyond the zero-config default.
type StoreOptions struct {
	// HistoryDepth is how many installed snapshots stay addressable via
	// ?snapshot=<id> and rollback; <= 0 uses DefaultHistoryDepth.
	HistoryDepth int
}

// NewStore creates a store serving snap with default options. The
// initial snapshot is held to the same validation bar as later installs.
func NewStore(snap *Snapshot) (*Store, error) {
	return NewStoreWithOptions(snap, StoreOptions{})
}

// NewStoreWithOptions creates a store serving snap.
func NewStoreWithOptions(snap *Snapshot, opts StoreOptions) (*Store, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	st := &Store{}
	st.cur.Store(snap)
	st.hist.init(opts.HistoryDepth, snap)
	return st, nil
}

// Load returns the live snapshot. It never returns nil: NewStore and
// Install both refuse snapshots that fail validation.
func (st *Store) Load() *Snapshot { return st.cur.Load() }

// Install validates snap and atomically swaps it in, recording the
// outgoing generation in the history ring. On validation failure the
// previous snapshot keeps serving untouched — this is the rollback half
// of the hot-reload contract.
func (st *Store) Install(snap *Snapshot) error {
	if err := snap.validate(); err != nil {
		return fmt.Errorf("install rejected, previous snapshot still serving: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cur.Store(snap)
	st.swaps.Add(1)
	st.hist.push(snap)
	return nil
}

// Rollback restores the previously installed snapshot from the history
// ring and counts as a swap. With no predecessor left it refuses with
// errNoPredecessor and the live snapshot keeps serving.
func (st *Store) Rollback() (*Snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev, ok := st.hist.pop()
	if !ok {
		return nil, errNoPredecessor
	}
	st.cur.Store(prev)
	st.swaps.Add(1)
	return prev, nil
}

// Swaps reports how many snapshots have been installed after the initial
// one; rollbacks count too.
func (st *Store) Swaps() uint64 { return st.swaps.Load() }
