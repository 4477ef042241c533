// Package wire implements the binary serving protocol: length-prefixed
// frames over persistent connections, the only way a decode reaches a
// replica or a router. A frame is a fixed 20-byte header
// (magic, version, opcode, health flags, model id, request id, payload
// length) followed by a bounded payload; syndromes and corrections
// travel as raw 64-bit words, so encode/decode is a header patch plus a
// word copy — no base-10 bit strings, no per-request allocation.
//
// The protocol is deliberately small:
//
//	client                         server
//	OpHello  (model key)    →
//	                        ←      OpHelloAck (model id, dimensions)
//	OpDecode (syndrome)     →                              ┐ pipelined
//	OpDecode (syndrome)     →                              ┘ frames batch
//	                        ←      OpResult (status, stats, words)
//	                        ←      OpResult
//	OpPing                  →
//	                        ←      OpPong (health flags)
//
// Model ids are assigned per connection by the server at OpHello time;
// a client resolves each model key once and reuses the id for the
// connection's lifetime. Every server→client frame carries the drain
// flag so a router can derive replica health passively from response
// traffic.
//
// Encoders append into a caller-owned buffer and parsers read in place,
// so the steady state on both sides is allocation-free (pinned by
// TestClientPipelineAllocFree here and by the serve and cluster
// round-trip tests).
package wire

import (
	"encoding/binary"
	"errors"
	"time"

	"vegapunk/internal/gf2"
)

// Frame geometry.
const (
	// Magic identifies a vegapunk wire frame ("VP", little-endian).
	Magic uint16 = 0x5650
	// Version is the protocol version carried in every header.
	Version byte = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20
	// MaxPayload bounds a frame payload; larger length prefixes are a
	// protocol error and the connection is closed. Syndrome and
	// correction words for every registered code fit far below this.
	MaxPayload = 1 << 20
)

// Op identifies the frame type.
type Op uint8

const (
	// OpHello resolves a model key (payload: UTF-8 key) to a
	// connection-scoped model id.
	OpHello Op = 1 + iota
	// OpHelloAck answers OpHello: the assigned id rides the header's
	// model-id field and the payload carries the model dimensions.
	OpHelloAck
	// OpDecode submits one syndrome (payload: bit length + words) for
	// the header's model id.
	OpDecode
	// OpResult answers OpDecode: status/stats plus, on success,
	// the correction and observable words.
	OpResult
	// OpPing requests a health probe.
	OpPing
	// OpPong answers OpPing; the header flags carry the health bits.
	OpPong
	// OpError reports a request- or protocol-level failure (payload:
	// status byte + message). After a protocol-level OpError the server
	// closes the connection.
	OpError
)

// String names the opcode for logs and tests.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpHelloAck:
		return "hello_ack"
	case OpDecode:
		return "decode"
	case OpResult:
		return "result"
	case OpPing:
		return "ping"
	case OpPong:
		return "pong"
	case OpError:
		return "error"
	}
	return "invalid"
}

// Status classifies a decode outcome (the wire analogue of the JSON
// API's HTTP status mapping).
type Status uint8

const (
	// StatusOK is a successful decode; the result payload carries the
	// correction and observable words.
	StatusOK Status = iota
	// StatusUnknownModel rejects an OpHello or OpDecode for a key/id
	// the server has not registered.
	StatusUnknownModel
	// StatusBadRequest rejects a malformed request (wrong syndrome
	// length, truncated payload).
	StatusBadRequest
	// StatusOverload fast-fails a request the server cannot admit: a
	// closed (draining) service, or a router with no usable replica.
	// Retryable on a sibling replica.
	StatusOverload
	// Status 4 is reserved and never sent; the blank keeps the values
	// of the statuses after it on the wire.
	_
	// StatusDecoderFault fails a request whose decoder panicked, hung
	// or produced a defective result; the instance was quarantined.
	// Retryable on a sibling replica.
	StatusDecoderFault
	// Status 6 is reserved and never sent, like 4.
	_
	// StatusInternal is any other server-side failure.
	StatusInternal

	numStatuses
)

// String names the status for logs and metrics.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnknownModel:
		return "unknown_model"
	case StatusBadRequest:
		return "bad_request"
	case StatusOverload:
		return "overload"
	case StatusDecoderFault:
		return "decoder_fault"
	case StatusInternal:
		return "internal"
	}
	return "invalid"
}

// Retryable reports whether a sibling replica might serve the request
// that failed with this status: the router's single-retry policy.
func (s Status) Retryable() bool {
	return s == StatusOverload || s == StatusDecoderFault
}

// Flags is the header flag word. On server→client frames it carries
// the replica health bits a router derives passive health from.
type Flags uint16

const (
	// Bits 0 and 1 are reserved and never set; the blanks keep the
	// values of the flags after them on the wire.
	_ Flags = 1 << iota
	_
	// FlagDraining reports the server is shutting down; the connection
	// closes after in-flight responses flush.
	FlagDraining
	// FlagRetried marks a router response that was served by a failover
	// sibling after the primary replica failed the request.
	FlagRetried
	// FlagTelemetry marks a frame carrying the optional telemetry
	// extension block at the tail of its payload: a trace block
	// (TraceContext) on OpDecode, a server-timing block (ServerTiming)
	// on OpResult. Peers that never set the flag never see the blocks,
	// so the extension is invisible to pre-telemetry parsers.
	FlagTelemetry
)

// Header is the fixed frame preamble.
//
// Byte layout (little-endian):
//
//	off size field
//	  0    2 magic (0x5650)
//	  2    1 version (1)
//	  3    1 opcode
//	  4    2 flags
//	  6    2 model id
//	  8    8 request id
//	 16    4 payload length (bytes)
type Header struct {
	Op         Op
	Flags      Flags
	ModelID    uint16
	ReqID      uint64
	PayloadLen int
}

// Protocol-level parse errors. All are terminal for the connection.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrOversize    = errors.New("wire: frame payload exceeds MaxPayload")
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrDimMismatch = errors.New("wire: vector length does not match model dimensions")
)

// IsProtocolError reports a bad frame — one the reader rejects, or one
// that does not answer the request it should — as opposed to ordinary
// connection teardown (timeouts, EOF, resets). Either ends the
// connection, but a bad frame says the bytes were damaged, not that the
// peer is down.
func IsProtocolError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrOversize) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrBadStatus) || errors.Is(err, ErrUnexpectedFrame) ||
		errors.Is(err, ErrReqIDMismatch)
}

// ParseHeader decodes the fixed header from b (which must hold at
// least HeaderSize bytes) and validates magic, version and the payload
// bound.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if binary.LittleEndian.Uint16(b[0:]) != Magic {
		return Header{}, ErrBadMagic
	}
	if b[2] != Version {
		return Header{}, ErrBadVersion
	}
	n := binary.LittleEndian.Uint32(b[16:])
	if n > MaxPayload {
		return Header{}, ErrOversize
	}
	return Header{
		Op:         Op(b[3]),
		Flags:      Flags(binary.LittleEndian.Uint16(b[4:])),
		ModelID:    binary.LittleEndian.Uint16(b[6:]),
		ReqID:      binary.LittleEndian.Uint64(b[8:]),
		PayloadLen: int(n),
	}, nil
}

// beginFrame appends a header with a zero payload length and returns
// the offset of the frame start; endFrame patches the length once the
// payload has been appended.
func beginFrame(buf []byte, op Op, flags Flags, modelID uint16, reqID uint64) ([]byte, int) {
	start := len(buf)
	buf = append(buf,
		byte(Magic&0xff), byte(Magic>>8), Version, byte(op),
		byte(flags), byte(flags>>8), byte(modelID), byte(modelID>>8),
		byte(reqID), byte(reqID>>8), byte(reqID>>16), byte(reqID>>24),
		byte(reqID>>32), byte(reqID>>40), byte(reqID>>48), byte(reqID>>56),
		0, 0, 0, 0)
	return buf, start
}

// endFrame patches the payload length of the frame begun at start.
func endFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+16:], uint32(len(buf)-start-HeaderSize))
	return buf
}

// appendVec appends a vector block: uint32 bit length then the packed
// 64-bit words.
func appendVec(buf []byte, v gf2.Vec) []byte {
	n := v.Len()
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	for i, words := 0, wordsFor(n); i < words; i++ {
		w := v.Word(i)
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}

// parseVecInto reads a vector block into v, which must already be
// sized to the expected bit length (clients size from OpHelloAck).
// Spare bits of the last word are masked so hostile input cannot break
// the gf2.Vec invariant. It returns the remaining payload bytes.
func parseVecInto(v gf2.Vec, b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != v.Len() {
		return nil, ErrDimMismatch
	}
	b = b[4:]
	words := wordsFor(n)
	if len(b) < 8*words {
		return nil, ErrTruncated
	}
	for i := 0; i < words; i++ {
		v.SetWord(i, binary.LittleEndian.Uint64(b[8*i:]))
	}
	if rem := uint(n % 64); rem != 0 && words > 0 {
		v.SetWord(words-1, v.Word(words-1)&(1<<rem-1))
	}
	return b[8*words:], nil
}

// wordsFor mirrors gf2's packing: 64-bit words per n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// ---- hello ----

// AppendHello appends an OpHello frame resolving key.
func AppendHello(buf []byte, reqID uint64, key string) []byte {
	buf, start := beginFrame(buf, OpHello, 0, 0, reqID)
	buf = append(buf, key...)
	return endFrame(buf, start)
}

// AppendHelloAck appends an OpHelloAck frame assigning modelID with the
// model's dimensions in the payload.
func AppendHelloAck(buf []byte, flags Flags, modelID uint16, reqID uint64, numDet, numMech, numObs int) []byte {
	buf, start := beginFrame(buf, OpHelloAck, flags, modelID, reqID)
	buf = append(buf,
		byte(numDet), byte(numDet>>8), byte(numDet>>16), byte(numDet>>24),
		byte(numMech), byte(numMech>>8), byte(numMech>>16), byte(numMech>>24),
		byte(numObs), byte(numObs>>8), byte(numObs>>16), byte(numObs>>24))
	return endFrame(buf, start)
}

// ParseHelloAck decodes an OpHelloAck payload.
func ParseHelloAck(b []byte) (numDet, numMech, numObs int, err error) {
	if len(b) < 12 {
		return 0, 0, 0, ErrTruncated
	}
	return int(binary.LittleEndian.Uint32(b)),
		int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:])), nil
}

// ---- decode ----

// AppendDecode appends an OpDecode frame carrying the syndrome for
// modelID.
func AppendDecode(buf []byte, modelID uint16, reqID uint64, syndrome gf2.Vec) []byte {
	buf, start := beginFrame(buf, OpDecode, 0, modelID, reqID)
	buf = appendVec(buf, syndrome)
	return endFrame(buf, start)
}

// ---- result ----

// resultFixedSize is the fixed prefix of an OpResult payload: status,
// tier (always 0), satisfied, reserved, bp iterations, and the three
// stage latencies.
const resultFixedSize = 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8

// Result is one decode outcome on the wire: the status/error class,
// the stage latencies from serve.Result's Stats, and — on StatusOK —
// the correction and observable words. Correction
// and Observables are caller-owned and must be pre-sized to the model
// dimensions (see SizeResult); ParseResultInto fills them in place.
type Result struct {
	Status Status
	// Deprecated: always 0 (core.TierFull) from a replica, since every
	// decode runs the decoder's constructed configuration. Kept only
	// because benchmark/workload.go still reads it.
	Tier        uint8
	Satisfied   bool
	BPIters     uint32
	QueueWaitNs int64
	DecodeNs    int64
	CopyOutNs   int64
	Correction  gf2.Vec
	Observables gf2.Vec
}

// SizeResult sizes res's vectors for a model's dimensions so the
// parse path stays allocation-free afterwards.
func SizeResult(res *Result, numMech, numObs int) {
	if res.Correction.Len() != numMech {
		res.Correction = gf2.NewVec(numMech)
	}
	if res.Observables.Len() != numObs {
		res.Observables = gf2.NewVec(numObs)
	}
}

// AppendResult appends an OpResult frame. A non-OK status carries only
// the fixed prefix; StatusOK adds the correction and observable words.
func AppendResult(buf []byte, flags Flags, modelID uint16, reqID uint64, res *Result) []byte {
	buf, start := beginFrame(buf, OpResult, flags, modelID, reqID)
	buf = appendResultBody(buf, res)
	return endFrame(buf, start)
}

// appendResultBody appends the fixed prefix and, on StatusOK, the
// vector blocks (the payload shared by AppendResult and
// AppendResultTimed).
func appendResultBody(buf []byte, res *Result) []byte {
	sat := byte(0)
	if res.Satisfied {
		sat = 1
	}
	buf = append(buf,
		byte(res.Status), res.Tier, sat, 0,
		byte(res.BPIters), byte(res.BPIters>>8), byte(res.BPIters>>16), byte(res.BPIters>>24))
	buf = appendI64(buf, res.QueueWaitNs)
	buf = appendI64(buf, res.DecodeNs)
	buf = appendI64(buf, res.CopyOutNs)
	if res.Status == StatusOK {
		buf = appendVec(buf, res.Correction)
		buf = appendVec(buf, res.Observables)
	}
	return buf
}

func appendI64(buf []byte, v int64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// ParseResultInto decodes an OpResult payload into res. On StatusOK
// the correction and observable vectors must be pre-sized to the model
// dimensions (SizeResult); on any other status they are left untouched.
func ParseResultInto(res *Result, b []byte) error {
	rest, err := parseResultBody(res, b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrTruncated
	}
	return nil
}

// parseResultBody decodes the fixed prefix and (on StatusOK) the
// vector blocks, returning whatever payload remains — the telemetry
// extension block when the frame carried one.
func parseResultBody(res *Result, b []byte) ([]byte, error) {
	if len(b) < resultFixedSize {
		return nil, ErrTruncated
	}
	if b[0] >= byte(numStatuses) {
		return nil, ErrBadStatus
	}
	res.Status = Status(b[0])
	res.Tier = b[1]
	res.Satisfied = b[2] != 0
	res.BPIters = binary.LittleEndian.Uint32(b[4:])
	res.QueueWaitNs = int64(binary.LittleEndian.Uint64(b[8:]))
	res.DecodeNs = int64(binary.LittleEndian.Uint64(b[16:]))
	res.CopyOutNs = int64(binary.LittleEndian.Uint64(b[24:]))
	b = b[resultFixedSize:]
	if res.Status != StatusOK {
		return b, nil
	}
	b, err := parseVecInto(res.Correction, b)
	if err != nil {
		return nil, err
	}
	b, err = parseVecInto(res.Observables, b)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// ErrBadStatus rejects a result frame whose status byte is outside the
// defined set, or an error frame whose status is not a failure.
var ErrBadStatus = errors.New("wire: invalid status code")

// ---- telemetry extension ----

// The telemetry extension is an optional, versioned block appended at
// the tail of a payload and announced by FlagTelemetry in the header:
//
//	OpDecode tail (traceBlockSize = 10 bytes):
//	  off size field
//	    0    1 extension version (TelemetryVersion)
//	    1    1 sample flag (bit 0: trace this request end to end)
//	    2    8 trace id (u64, nonzero)
//
//	OpResult tail (timingBlockSize = 44 bytes):
//	  off size field
//	    0    1 extension version (TelemetryVersion)
//	    1    1 reserved (written 0, ignored on read)
//	    2    2 worker id (u16)
//	    4    8 queue_wait_ns (i64)
//	   12    8 batch_assemble_ns (i64)
//	   20    8 decode_ns (i64)
//	   28    8 copy_out_ns (i64)
//	   36    8 server tick (i64, replica obs clock at result encode)
//
// A block whose version byte is not TelemetryVersion parses as
// no-telemetry: the rest of the payload is skipped so future versions
// (which may be longer) degrade gracefully on old peers.

// TelemetryVersion is the extension version this package encodes.
const TelemetryVersion byte = 1

const (
	traceBlockSize  = 1 + 1 + 8
	timingBlockSize = 1 + 1 + 2 + 8 + 8 + 8 + 8 + 8
)

// TraceContext is the request half of the telemetry extension: the
// caller-issued trace id and whether the replica should record spans
// for this request regardless of its own sampling lattice.
type TraceContext struct {
	TraceID uint64
	Sampled bool
}

// ServerTiming is the response half: the replica-reported stage
// breakdown a router subtracts from its wall clock to split latency
// into network and server time, plus the replica's own clock reading
// (ServerTick) used to estimate the per-connection clock offset.
// The block's second byte is reserved: written 0, ignored on read.
type ServerTiming struct {
	WorkerID        uint16
	QueueWaitNs     int64
	BatchAssembleNs int64
	DecodeNs        int64
	CopyOutNs       int64
	ServerTick      int64
}

// ServerNs is the total replica-resident time the block accounts for.
func (t *ServerTiming) ServerNs() int64 {
	return t.QueueWaitNs + t.DecodeNs + t.CopyOutNs
}

// AppendTraceBlock appends a raw request trace block (no header): the
// router uses it to extend an already-copied decode payload before
// relaying it under FlagTelemetry.
func AppendTraceBlock(buf []byte, tc TraceContext) []byte {
	s := byte(0)
	if tc.Sampled {
		s = 1
	}
	return append(buf,
		TelemetryVersion, s,
		byte(tc.TraceID), byte(tc.TraceID>>8), byte(tc.TraceID>>16), byte(tc.TraceID>>24),
		byte(tc.TraceID>>32), byte(tc.TraceID>>40), byte(tc.TraceID>>48), byte(tc.TraceID>>56))
}

// AppendDecodeTraced appends an OpDecode frame carrying the syndrome
// plus the trace block, with FlagTelemetry set in the header.
func AppendDecodeTraced(buf []byte, modelID uint16, reqID uint64, syndrome gf2.Vec, tc TraceContext) []byte {
	buf, start := beginFrame(buf, OpDecode, FlagTelemetry, modelID, reqID)
	buf = appendVec(buf, syndrome)
	buf = AppendTraceBlock(buf, tc)
	return endFrame(buf, start)
}

// ParseDecodeTracedInto reads an OpDecode payload into syn and, when
// flags carries FlagTelemetry, decodes the trailing trace block. A
// block with an unknown extension version parses as no-telemetry
// (zero TraceContext); a flagged frame with a truncated block is a
// protocol error.
func ParseDecodeTracedInto(syn gf2.Vec, flags Flags, b []byte) (TraceContext, error) {
	rest, err := parseVecInto(syn, b)
	if err != nil {
		return TraceContext{}, err
	}
	if flags&FlagTelemetry == 0 {
		if len(rest) != 0 {
			return TraceContext{}, ErrTruncated
		}
		return TraceContext{}, nil
	}
	if len(rest) < 1 {
		return TraceContext{}, ErrTruncated
	}
	if rest[0] != TelemetryVersion {
		return TraceContext{}, nil // unknown version: skip the block
	}
	if len(rest) != traceBlockSize {
		return TraceContext{}, ErrTruncated
	}
	return TraceContext{
		Sampled: rest[1]&1 != 0,
		TraceID: binary.LittleEndian.Uint64(rest[2:]),
	}, nil
}

// PeekTraceContext reads the trace block off the tail of an OpDecode
// payload without parsing the syndrome — the router's relay path. It
// reports false when the flag is clear, the payload is too short, or
// the byte at the expected block offset is not a v1 version byte
// (unknown extension versions relay untouched).
func PeekTraceContext(flags Flags, payload []byte) (TraceContext, bool) {
	if flags&FlagTelemetry == 0 || len(payload) < 4+traceBlockSize {
		return TraceContext{}, false
	}
	tail := payload[len(payload)-traceBlockSize:]
	if tail[0] != TelemetryVersion {
		return TraceContext{}, false
	}
	return TraceContext{
		Sampled: tail[1]&1 != 0,
		TraceID: binary.LittleEndian.Uint64(tail[2:]),
	}, true
}

// AppendResultTimed appends an OpResult frame with the server-timing
// block at the payload tail and FlagTelemetry set in the header.
func AppendResultTimed(buf []byte, flags Flags, modelID uint16, reqID uint64, res *Result, st *ServerTiming) []byte {
	buf, start := beginFrame(buf, OpResult, flags|FlagTelemetry, modelID, reqID)
	buf = appendResultBody(buf, res)
	buf = append(buf,
		TelemetryVersion, 0, byte(st.WorkerID), byte(st.WorkerID>>8))
	buf = appendI64(buf, st.QueueWaitNs)
	buf = appendI64(buf, st.BatchAssembleNs)
	buf = appendI64(buf, st.DecodeNs)
	buf = appendI64(buf, st.CopyOutNs)
	buf = appendI64(buf, st.ServerTick)
	return endFrame(buf, start)
}

// parseTimingBlock decodes one server-timing block. An unknown version
// parses as absent (ok but !present); a short v1 block is a protocol
// error.
func parseTimingBlock(st *ServerTiming, b []byte) (bool, error) {
	if len(b) < 1 {
		return false, ErrTruncated
	}
	if b[0] != TelemetryVersion {
		return false, nil // unknown version: skip the block
	}
	if len(b) != timingBlockSize {
		return false, ErrTruncated
	}
	st.WorkerID = binary.LittleEndian.Uint16(b[2:])
	st.QueueWaitNs = int64(binary.LittleEndian.Uint64(b[4:]))
	st.BatchAssembleNs = int64(binary.LittleEndian.Uint64(b[12:]))
	st.DecodeNs = int64(binary.LittleEndian.Uint64(b[20:]))
	st.CopyOutNs = int64(binary.LittleEndian.Uint64(b[28:]))
	st.ServerTick = int64(binary.LittleEndian.Uint64(b[36:]))
	return true, nil
}

// ParseResultTimedInto decodes an OpResult payload into res and, when
// flags carries FlagTelemetry, the trailing server-timing block into
// st. It reports whether st was filled (false for unflagged frames and
// unknown extension versions).
func ParseResultTimedInto(res *Result, st *ServerTiming, flags Flags, b []byte) (bool, error) {
	rest, err := parseResultBody(res, b)
	if err != nil {
		return false, err
	}
	if flags&FlagTelemetry == 0 {
		if len(rest) != 0 {
			return false, ErrTruncated
		}
		return false, nil
	}
	return parseTimingBlock(st, rest)
}

// PeekServerTiming reads the server-timing block off the tail of an
// OpResult payload without parsing the vector blocks — the router's
// relay path, which never re-parses vectors. It reports false when the
// flag is clear, the payload is too short, or the byte at the expected
// block offset is not a v1 version byte.
func PeekServerTiming(st *ServerTiming, flags Flags, payload []byte) bool {
	if flags&FlagTelemetry == 0 || len(payload) < resultFixedSize+timingBlockSize {
		return false
	}
	tail := payload[len(payload)-timingBlockSize:]
	if tail[0] != TelemetryVersion {
		return false
	}
	ok, err := parseTimingBlock(st, tail)
	return ok && err == nil
}

// TrimServerTiming drops the v1 server-timing block off the tail of an
// OpResult payload, so a router can strip telemetry it injected before
// relaying the result to a client that never asked for it. Payloads
// without a recognizable block are returned unchanged.
func TrimServerTiming(flags Flags, payload []byte) []byte {
	if flags&FlagTelemetry == 0 || len(payload) < resultFixedSize+timingBlockSize {
		return payload
	}
	if payload[len(payload)-timingBlockSize] != TelemetryVersion {
		return payload
	}
	return payload[:len(payload)-timingBlockSize]
}

// ---- relay ----

// MaxStageNs bounds a plausible stage time (queue wait, batch assembly,
// decode, copy-out). The wire protocol has no checksum, so a flipped
// byte inside an i64 shows up as a negative or absurdly large stage
// time; an hour bounds any real stage far above every configured
// timeout while catching random corruption of the high bytes.
const MaxStageNs = int64(time.Hour)

// ValidResultPayload reports whether an OpResult payload would parse at
// a client bound to a model with numMech mechanism and numObs
// observable bits, with plausible stage times: after trimming any
// recognizable server-timing block, the fixed prefix — its queue-wait,
// decode and copy-out times each in [0, MaxStageNs] — plus, on
// StatusOK, exactly the two vector blocks with the expected bit
// lengths, and nothing else. The router uses it as a relay gate: a
// payload corrupted in flight (a flipped vector-length byte, a mangled
// telemetry tail, a flipped high byte of a stage time) is retried
// upstream instead of being handed to a client whose only recourse is
// tearing down the stream or recording garbage. It inspects lengths and
// three integers only, so it stays cheap on the relay hot path.
func ValidResultPayload(flags Flags, payload []byte, numMech, numObs int) bool {
	b := TrimServerTiming(flags, payload)
	if len(b) < resultFixedSize || b[0] >= byte(numStatuses) {
		return false
	}
	// The prefix ends in the three stage times.
	for off := resultFixedSize - 24; off < resultFixedSize; off += 8 {
		if ns := int64(binary.LittleEndian.Uint64(b[off:])); ns < 0 || ns > MaxStageNs {
			return false
		}
	}
	if Status(b[0]) != StatusOK {
		return len(b) == resultFixedSize
	}
	b = b[resultFixedSize:]
	b, ok := validVecBlock(b, numMech)
	if !ok {
		return false
	}
	b, ok = validVecBlock(b, numObs)
	return ok && len(b) == 0
}

// validVecBlock consumes one vector block iff it declares exactly n
// bits, returning the remaining bytes.
func validVecBlock(b []byte, n int) ([]byte, bool) {
	if len(b) < 4 || int(binary.LittleEndian.Uint32(b)) != n {
		return nil, false
	}
	b = b[4:]
	w := 8 * wordsFor(n)
	if len(b) < w {
		return nil, false
	}
	return b[w:], true
}

// AppendFrame re-emits an already-encoded payload under a rewritten
// header: the router relays backend responses to its clients without
// re-parsing the vector blocks.
func AppendFrame(buf []byte, op Op, flags Flags, modelID uint16, reqID uint64, payload []byte) []byte {
	buf, start := beginFrame(buf, op, flags, modelID, reqID)
	buf = append(buf, payload...)
	return endFrame(buf, start)
}

// PeekStatus reads the status class off an OpResult or OpError payload
// (both carry it in byte 0) without a full parse: the router's retry
// decision.
func PeekStatus(payload []byte) (Status, error) {
	if len(payload) < 1 {
		return 0, ErrTruncated
	}
	if payload[0] >= byte(numStatuses) {
		return 0, ErrBadStatus
	}
	return Status(payload[0]), nil
}

// ---- ping / pong / error ----

// AppendPing appends an OpPing health probe.
func AppendPing(buf []byte, reqID uint64) []byte {
	buf, start := beginFrame(buf, OpPing, 0, 0, reqID)
	return endFrame(buf, start)
}

// AppendPong appends an OpPong answer carrying the health flags.
func AppendPong(buf []byte, flags Flags, reqID uint64) []byte {
	buf, start := beginFrame(buf, OpPong, flags, 0, reqID)
	return endFrame(buf, start)
}

// AppendError appends an OpError frame with a status class and a
// human-readable message.
func AppendError(buf []byte, flags Flags, reqID uint64, status Status, msg string) []byte {
	buf, start := beginFrame(buf, OpError, flags, 0, reqID)
	buf = append(buf, byte(status))
	buf = append(buf, msg...)
	return endFrame(buf, start)
}

// ParseError decodes an OpError payload into its status and message.
// The status must be a defined failure: an error frame claiming
// StatusOK (a byte flipped in flight) would otherwise read as a success
// with no result behind it.
func ParseError(b []byte) (Status, string, error) {
	if len(b) < 1 {
		return 0, "", ErrTruncated
	}
	if b[0] == byte(StatusOK) || b[0] >= byte(numStatuses) {
		return 0, "", ErrBadStatus
	}
	return Status(b[0]), string(b[1:]), nil
}
