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
//	OpDecode (syndrome, trace)  →                          ┐ pipelined
//	OpDecode (syndrome, trace)  →                          ┘ frames batch
//	                        ←      OpResult (status, stats, timing, words)
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
// Telemetry is part of the frame, not an option: every decode frame
// ends in a fixed trace block (sample bit and trace id, 0 for none) and
// every result frame's fixed prefix carries the replica's stage times,
// worker id and clock reading, so each request's network/server split
// is readable wherever the frame goes.
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
	// Version is the protocol version carried in every header. Version
	// 2 made the trace block and the result timing part of every decode
	// and result frame; a version-1 peer fails at the header.
	Version byte = 2
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
	// OpDecode submits one syndrome (payload: bit length + words, then
	// the trace block) for the header's model id.
	OpDecode
	// OpResult answers OpDecode: status, stats and the replica's timing
	// plus, on success, the correction and observable words.
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
	// Bit 4 is reserved and never set, like bits 0 and 1.
	_
)

// Header is the fixed frame preamble.
//
// Byte layout (little-endian):
//
//	off size field
//	  0    2 magic (0x5650)
//	  2    1 version (2)
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

// traceBlockSize is the trace block that ends every OpDecode payload:
// the sample flag (bit 0; the other bits are written 0 and ignored on
// read) and the u64 trace id.
const traceBlockSize = 1 + 8

// TraceContext is an OpDecode frame's trace block: the caller's trace
// id (0 means none, and the receiver issues its own) and whether the
// replica records spans for this request regardless of its own
// sampling lattice.
type TraceContext struct {
	TraceID uint64
	Sampled bool
}

// AppendDecode appends an OpDecode frame carrying the syndrome for
// modelID under a zero trace block.
func AppendDecode(buf []byte, modelID uint16, reqID uint64, syndrome gf2.Vec) []byte {
	return AppendDecodeTraced(buf, modelID, reqID, syndrome, TraceContext{})
}

// AppendDecodeTraced appends an OpDecode frame: the syndrome's vector
// block, then the trace block tc.
func AppendDecodeTraced(buf []byte, modelID uint16, reqID uint64, syndrome gf2.Vec, tc TraceContext) []byte {
	buf, start := beginFrame(buf, OpDecode, 0, modelID, reqID)
	buf = appendVec(buf, syndrome)
	buf = append(buf, make([]byte, traceBlockSize)...)
	PutTraceContext(buf, tc)
	return endFrame(buf, start)
}

// ParseDecodeInto reads an OpDecode payload: the syndrome into syn,
// which must already be sized to the model's detector count, and the
// trace block it ends in.
func ParseDecodeInto(syn gf2.Vec, b []byte) (TraceContext, error) {
	rest, err := parseVecInto(syn, b)
	if err != nil {
		return TraceContext{}, err
	}
	if len(rest) != traceBlockSize {
		return TraceContext{}, ErrTruncated
	}
	return readTraceBlock(rest), nil
}

// PeekTraceContext reads the trace block off the tail of an OpDecode
// payload without parsing the syndrome: the router's relay path. It
// reports false when the payload is too short to hold a vector length
// and a block.
func PeekTraceContext(payload []byte) (TraceContext, bool) {
	if len(payload) < 4+traceBlockSize {
		return TraceContext{}, false
	}
	return readTraceBlock(payload[len(payload)-traceBlockSize:]), true
}

func readTraceBlock(b []byte) TraceContext {
	return TraceContext{Sampled: b[0]&1 != 0, TraceID: binary.LittleEndian.Uint64(b[1:])}
}

// PutTraceContext overwrites the trace block at the tail of an OpDecode
// payload in place: the router writes the id it issues for a lane whose
// client sent none. The payload must hold a block (PeekTraceContext
// reports true).
func PutTraceContext(payload []byte, tc TraceContext) {
	tail := payload[len(payload)-traceBlockSize:]
	tail[0] = 0
	if tc.Sampled {
		tail[0] = 1
	}
	binary.LittleEndian.PutUint64(tail[1:], tc.TraceID)
}

// ---- result ----

// The fixed prefix of every OpResult payload (little-endian):
//
//	off size field
//	  0    1 status
//	  1    1 tier (always 0)
//	  2    1 satisfied (0 or 1)
//	  3    1 reserved (written 0, ignored on read)
//	  4    4 bp iterations (u32)
//	  8    8 queue_wait_ns (i64)
//	 16    8 batch_assemble_ns (i64)
//	 24    8 decode_ns (i64)
//	 32    8 copy_out_ns (i64)
//	 40    8 server tick (i64, the replica's obs clock at result encode)
//	 48    2 worker id (u16)
//
// StatusOK follows it with the correction and observable vector blocks;
// every other status ends with it.
const (
	// stagesOff is the offset of the four stage times.
	stagesOff        = 8
	resultPrefixSize = stagesOff + 4*8 + 8 + 2
)

// ServerTiming is the replica's side of a decode, carried in every
// result prefix: the stage breakdown a router subtracts from its wall
// clock to split latency into network and server time, the worker that
// ran the decode, and the replica's own clock reading (ServerTick) used
// to estimate the per-connection clock offset. A failed lane reports
// zero stage times.
type ServerTiming struct {
	WorkerID        uint16
	QueueWaitNs     int64
	BatchAssembleNs int64
	DecodeNs        int64
	CopyOutNs       int64
	ServerTick      int64
}

// ServerNs is the total replica-resident time the stages account for.
func (t *ServerTiming) ServerNs() int64 {
	return t.QueueWaitNs + t.DecodeNs + t.CopyOutNs
}

// Result is one decode outcome on the wire: the status/error class,
// the replica's timing, and — on StatusOK — the correction and
// observable words. Correction and Observables are caller-owned and
// must be pre-sized to the model dimensions (see SizeResult);
// ParseResultInto fills them in place.
type Result struct {
	Status Status
	// Deprecated: always 0 (core.TierFull) from a replica, since every
	// decode runs the decoder's constructed configuration. Kept only
	// because benchmark/workload.go still reads it.
	Tier      uint8
	Satisfied bool
	BPIters   uint32
	ServerTiming
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

// AppendResult appends an OpResult frame: the fixed prefix and, on
// StatusOK, the correction and observable words.
func AppendResult(buf []byte, flags Flags, modelID uint16, reqID uint64, res *Result) []byte {
	buf, start := beginFrame(buf, OpResult, flags, modelID, reqID)
	sat := byte(0)
	if res.Satisfied {
		sat = 1
	}
	le := binary.LittleEndian
	buf = append(buf, byte(res.Status), res.Tier, sat, 0)
	buf = le.AppendUint32(buf, res.BPIters)
	st := &res.ServerTiming
	buf = le.AppendUint64(buf, uint64(st.QueueWaitNs))
	buf = le.AppendUint64(buf, uint64(st.BatchAssembleNs))
	buf = le.AppendUint64(buf, uint64(st.DecodeNs))
	buf = le.AppendUint64(buf, uint64(st.CopyOutNs))
	buf = le.AppendUint64(buf, uint64(st.ServerTick))
	buf = le.AppendUint16(buf, st.WorkerID)
	if res.Status == StatusOK {
		buf = appendVec(buf, res.Correction)
		buf = appendVec(buf, res.Observables)
	}
	return endFrame(buf, start)
}

// ParseResultInto decodes an OpResult payload into res. On StatusOK
// the correction and observable vectors must be pre-sized to the model
// dimensions (SizeResult); on any other status they are left untouched.
func ParseResultInto(res *Result, b []byte) error {
	if len(b) < resultPrefixSize {
		return ErrTruncated
	}
	if b[0] >= byte(numStatuses) {
		return ErrBadStatus
	}
	res.Status = Status(b[0])
	res.Tier = b[1]
	res.Satisfied = b[2] != 0
	res.BPIters = binary.LittleEndian.Uint32(b[4:])
	PeekServerTiming(&res.ServerTiming, b)
	b = b[resultPrefixSize:]
	if res.Status == StatusOK {
		var err error
		if b, err = parseVecInto(res.Correction, b); err != nil {
			return err
		}
		if b, err = parseVecInto(res.Observables, b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return ErrTruncated
	}
	return nil
}

// PeekServerTiming reads the timing fields off an OpResult payload's
// prefix without parsing the vector blocks: the router's relay path,
// which never re-parses vectors. It reports false when the payload is
// shorter than the prefix.
func PeekServerTiming(st *ServerTiming, payload []byte) bool {
	if len(payload) < resultPrefixSize {
		return false
	}
	b := payload[stagesOff:]
	st.QueueWaitNs = int64(binary.LittleEndian.Uint64(b))
	st.BatchAssembleNs = int64(binary.LittleEndian.Uint64(b[8:]))
	st.DecodeNs = int64(binary.LittleEndian.Uint64(b[16:]))
	st.CopyOutNs = int64(binary.LittleEndian.Uint64(b[24:]))
	st.ServerTick = int64(binary.LittleEndian.Uint64(b[32:]))
	st.WorkerID = binary.LittleEndian.Uint16(b[40:])
	return true
}

// ErrBadStatus rejects a result frame whose status byte is outside the
// defined set, or an error frame whose status is not a failure.
var ErrBadStatus = errors.New("wire: invalid status code")

// ---- relay ----

// MaxStageNs bounds a plausible stage time (queue wait, batch assembly,
// decode, copy-out). The wire protocol has no checksum, so a flipped
// byte inside an i64 shows up as a negative or absurdly large stage
// time; an hour bounds any real stage far above every configured
// timeout while catching random corruption of the high bytes.
const MaxStageNs = int64(time.Hour)

// ValidResultPayload reports whether an OpResult payload would parse at
// a client bound to a model with numMech mechanism and numObs
// observable bits, with plausible stage times: the fixed prefix — its
// four stage times each in [0, MaxStageNs] — plus, on StatusOK, exactly
// the two vector blocks with the expected bit lengths, and nothing
// else. The router uses it as a relay gate: a payload corrupted in
// flight (a flipped vector-length byte, a flipped high byte of a stage
// time) is retried upstream instead of being handed to a client whose
// only recourse is tearing down the stream or recording garbage. It
// inspects lengths and four integers only, so it stays cheap on the
// relay hot path.
func ValidResultPayload(b []byte, numMech, numObs int) bool {
	if len(b) < resultPrefixSize || b[0] >= byte(numStatuses) {
		return false
	}
	for off := stagesOff; off < stagesOff+4*8; off += 8 {
		if ns := int64(binary.LittleEndian.Uint64(b[off:])); ns < 0 || ns > MaxStageNs {
			return false
		}
	}
	if Status(b[0]) != StatusOK {
		return len(b) == resultPrefixSize
	}
	b = b[resultPrefixSize:]
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
