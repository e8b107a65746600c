package cluster

// Replication stream frame codes. They reuse fileserver's length-prefixed
// framing (fileserver.WriteFrame/ReadFrame) but live in their own 200+
// range so a replication frame arriving on a client session — or vice
// versa — is rejected as an unknown code instead of misparsed.
//
// The stream is a synchronous half-duplex RPC: the primary sends one frame
// and waits for the replica's repAck (or repHelloAck/repReject) before
// sending the next. That keeps the link free of demultiplexing machinery
// and makes per-batch failure detection trivial: a missing ack is a dead
// or wedged replica.
const (
	// repHello: primary → replica on connect. Frame id is the primary's
	// epoch; payload: str primaryName | i64 deviceSize | u64 startSeq
	// (first sequence number the primary would stream next).
	repHello uint8 = 200 + iota
	// repHelloAck: replica accepts. Frame id echoes the epoch; payload:
	// u64 appliedSeq | u8 flags.
	repHelloAck
	// repReject: replica refuses the link (stale epoch, size mismatch).
	// Frame id is the replica's current epoch; payload: str reason.
	repReject
	// repRecords: a batch of encoded records, concatenated. Frame id is
	// the first record's seq (0 for resync batches).
	repRecords
	// repResyncBegin: a full-image resync follows. Frame id is the
	// snapshot's sequence number; payload: i64 deviceSize. The replica
	// zeroes its device and applies the following unsequenced batches.
	repResyncBegin
	// repResyncEnd: resync complete; the replica's appliedSeq becomes the
	// frame id (the snapshot seq).
	repResyncEnd
	// repHeartbeat: liveness probe while the stream is idle; the replica
	// answers with repAck.
	repHeartbeat
	// repAck: replica → primary after every repRecords / repResyncBegin /
	// repResyncEnd / repHeartbeat. Frame id is appliedSeq; payload:
	// u64 appliedSeq | u8 flags.
	repAck
)

// repAck / repHelloAck flag bits.
const (
	// flagGap: the replica saw a sequence gap or an unappliable record and
	// needs a resync before it can make progress.
	flagGap uint8 = 1 << iota
	// flagBadRecord: at least one record in the last batch failed to
	// decode (torn or corrupted stream). Implies flagGap.
	flagBadRecord
)
