package serve

import (
	"fmt"
	"sync"
	"time"
)

// DefaultHistoryDepth is how many installed snapshots a Store keeps
// addressable when no explicit depth is configured: the live one plus
// three predecessors.
const DefaultHistoryDepth = 4

// SnapshotDesc is one row of the /v1/snapshots listing: an installed
// generation a client can still read via ?snapshot=<id>, newest first.
type SnapshotDesc struct {
	ID        string    `json:"id"`
	BuiltAt   time.Time `json:"built_at"`
	Countries int       `json:"countries"`
	Trackers  int       `json:"trackers"`
	Live      bool      `json:"live,omitempty"`
}

// SnapshotsPayload is the /v1/snapshots response body.
type SnapshotsPayload struct {
	Count     int            `json:"count"`
	Depth     int            `json:"depth"`
	Snapshots []SnapshotDesc `json:"snapshots"`
}

// snapHistory is the ring of the last N installed snapshots, oldest
// first; the live generation is always the last entry. The Store embeds
// one and serves historical reads and rollbacks straight from it. All
// methods are mutex-guarded — history is only touched on install,
// rollback, and the (cold) ?snapshot=/listing paths, never on the live
// hot path.
type snapHistory struct {
	mu      sync.Mutex
	depth   int
	entries []*Snapshot
}

func (h *snapHistory) init(depth int, first *Snapshot) {
	if depth <= 0 {
		depth = DefaultHistoryDepth
	}
	h.depth = depth
	h.entries = append(h.entries[:0], first)
}

// push appends a newly installed snapshot, evicting the oldest entry
// beyond the configured depth.
func (h *snapHistory) push(s *Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = append(h.entries, s)
	if len(h.entries) > h.depth {
		over := len(h.entries) - h.depth
		h.entries = append(h.entries[:0], h.entries[over:]...)
	}
}

// pop discards the newest entry and returns the predecessor that
// becomes the newest; with a single entry left it refuses and changes
// nothing.
func (h *snapHistory) pop() (*Snapshot, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) < 2 {
		return nil, false
	}
	h.entries = h.entries[:len(h.entries)-1]
	return h.entries[len(h.entries)-1], true
}

// errNoPredecessor is the structured refusal for a rollback with no
// remaining predecessor.
var errNoPredecessor = fmt.Errorf("serve: no predecessor snapshot in history to roll back to")

// byID resolves a still-addressable snapshot; when the same ID was
// installed more than once, the newest wins.
func (h *snapHistory) byID(id string) (*Snapshot, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.entries) - 1; i >= 0; i-- {
		if h.entries[i].meta.ID == id {
			return h.entries[i], true
		}
	}
	return nil, false
}

// list materializes the /v1/snapshots rows, newest first.
func (h *snapHistory) list() SnapshotsPayload {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := SnapshotsPayload{
		Count:     len(h.entries),
		Depth:     h.depth,
		Snapshots: make([]SnapshotDesc, 0, len(h.entries)),
	}
	for i := len(h.entries) - 1; i >= 0; i-- {
		s := h.entries[i]
		out.Snapshots = append(out.Snapshots, SnapshotDesc{
			ID:        s.meta.ID,
			BuiltAt:   s.meta.BuiltAt,
			Countries: len(s.codes),
			Trackers:  len(s.domains),
			Live:      i == len(h.entries)-1,
		})
	}
	return out
}
