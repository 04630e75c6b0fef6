package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured lifecycle record: checkpoint phases, migration
// steps, recovery, transport redials, inbox drops. At is nanoseconds on
// the emitter's clock (simulated or wall, whichever the component runs
// on); Kind is a stable dotted name like "ckpt.seal" or "socket.redial".
type Event struct {
	At      int64  `json:"at_ns"`
	Kind    string `json:"kind"`
	Node    string `json:"node,omitempty"`
	Slot    string `json:"slot,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Journal is a bounded in-memory ring of lifecycle events shared by
// region, node, controller, and transport. Emit on a nil journal is a
// no-op, so components can hold an optional *Journal without guards.
type Journal struct {
	mu     sync.Mutex
	events []Event
	next   int
	full   bool
	cap    int
	total  uint64
}

// defaultJournalCap bounds the ring; older events are overwritten.
const defaultJournalCap = 4096

// NewJournal returns a journal retaining the last capacity events
// (capacity <= 0 selects the default).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	return &Journal{events: make([]Event, capacity), cap: capacity}
}

// Emit appends one event, overwriting the oldest when full. Safe on nil.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events[j.next] = e
	j.next++
	j.total++
	if j.next == j.cap {
		j.next = 0
		j.full = true
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if j.full {
		out = make([]Event, 0, j.cap)
		out = append(out, j.events[j.next:]...)
		out = append(out, j.events[:j.next]...)
	} else {
		out = make([]Event, j.next)
		copy(out, j.events[:j.next])
	}
	return out
}

// emitted reports how many events were ever emitted (including overwritten).
func (j *Journal) emitted() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// writeJSONL renders the retained events as JSON Lines, oldest first.
func (j *Journal) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
