// Package memsys is the cache side of the data-decoupled machine's memory
// streams. A Stream bundles what the paper attaches to one stream's cache:
// the cache itself, the per-cycle port arbitration state in front of it
// (with the §2.2.2 access-combining window), and the stream's statistics
// counters, behind a small API the pipeline drives (Grant, CommitStore,
// CloseWindow).
//
// The paper's LVAQ/LVC + LSQ/L1 organization is the N = 2 instance: the
// core builds one Stream per config.StreamSpec and steers each memory
// instruction to a stream at dispatch. The streams are indexed, not
// named, but MaxStreams caps them at the two that config.Streams builds,
// which keeps every in-flight access's per-stream state two slots wide.
//
// Each stream's access queue — the program-ordered window of in-flight
// accesses that load/store ordering is enforced over — belongs to the
// core, beside the instruction window whose entries it holds, as
// sim-outorder keeps its LSQ inside the core.
package memsys

// MaxStreams is the most streams a machine has, and so the most queues
// one access can occupy: the conventional LSQ plus, on a decoupled
// machine, the LVAQ (config.Streams). A dual-steered access occupies both.
const MaxStreams = 2
