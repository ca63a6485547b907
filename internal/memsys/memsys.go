// Package memsys is the N-stream memory subsystem of the data-decoupled
// machine. A Stream bundles everything the paper attaches to one memory
// access stream — its access queue (a ring buffer of in-flight entries),
// the cache it feeds, the per-cycle port arbitration state of that cache,
// and the stream's statistics counters — behind a small API the pipeline
// drives (Dispatch, Grant, CommitStore, Retire, Drain, Occupancy).
//
// The paper's LVAQ/LVC + LSQ/L1 organization is the N = 2 instance: the
// core builds one Stream per config.StreamSpec and steers each memory
// instruction to a stream at dispatch. The streams are indexed, not
// named, but MaxStreams caps them at the two that config.Streams builds,
// which keeps every entry's per-stream state two slots wide.
//
// Queue entries are owned by the pipeline (the core's RUU entries) and are
// registered here through the Entry interface. Each entry embeds a Node,
// which carries per-stream position tickets: IndexOf and membership tests
// are O(1), removal at the head (the common case — commit order equals
// queue order) is O(1), and only the rare mid-queue removals of misroute
// recovery and dual-copy kills shift elements. The old slice-backed
// implementation paid an O(n) scan per committed memory instruction.
package memsys

// MaxStreams is the most streams a machine has, and so the most one Entry
// can occupy: the conventional LSQ plus, on a decoupled machine, the LVAQ
// (config.Streams). A dual-steered access occupies both.
const MaxStreams = 2

// Entry is one in-flight memory access as seen by a stream's queue. The
// pipeline's instruction-window entry implements it by embedding a Node.
type Entry interface {
	// QueueNode returns the entry's queue bookkeeping; one Node serves
	// every stream the entry occupies.
	QueueNode() *Node
	// OrderSeq returns the entry's program-order sequence number. Queue
	// contents are always ordered by it.
	OrderSeq() uint64
}

// Node is the per-entry bookkeeping a Queue needs: one position ticket and
// membership bit per stream. Embed a Node in the queue element type and
// return it from QueueNode.
type Node struct {
	tick [MaxStreams]uint64
	in   [MaxStreams]bool
}

// InStream reports whether the owning entry currently occupies stream id.
func (n *Node) InStream(id int) bool { return n.in[id] }
