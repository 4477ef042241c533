package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"vegapunk/internal/gf2"
)

// readerBufSize is the buffered-reader window: large enough that a
// whole pipelined request batch is visible to FrameBuffered, so the
// server can coalesce it into one micro-batch.
const readerBufSize = 64 << 10

// maxResyncSkip bounds how many bytes a resync scan may discard before
// declaring the stream unrecoverable: one maximal frame plus a header,
// the worst case for a desync landing at the start of a full payload.
const maxResyncSkip = MaxPayload + HeaderSize

// Reader reads frames off a connection. The payload returned by
// ReadFrame aliases an internal buffer and is valid only until the
// next ReadFrame call — parse it (ParseDecodeInto, ParseResultInto)
// before reading on. Not safe for concurrent use.
//
// Stream discipline: the header is Peeked before being consumed, so a
// read deadline firing mid-header leaves the stream intact and the
// read can simply be retried. A deadline (or any read error) firing
// mid-payload has consumed part of a frame; the Reader poisons itself
// and every subsequent ReadFrame fails fast with the original error —
// a half-read frame must never be re-parsed from the middle.
type Reader struct {
	br      *bufio.Reader
	payload []byte
	resync  bool
	desyncs uint64
	skipped uint64
	broken  error
}

// NewReader wraps r in a framed reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readerBufSize)}
}

// EnableResync switches the Reader from fail-fast to scan-and-resync
// on a corrupt frame header: it discards bytes until the next
// plausible header (magic, version, known op, sane length) and counts
// the event in Desyncs. Responses that were inside the skipped region
// are gone — callers with pipelined requests must reconcile via their
// in-flight accounting. Off by default (a corrupt header poisons the
// stream).
func (r *Reader) EnableResync() { r.resync = true }

// Desyncs returns how many resync scans this Reader has performed.
func (r *Reader) Desyncs() uint64 { return r.desyncs }

// SkippedBytes returns how many bytes resync scans have discarded.
func (r *Reader) SkippedBytes() uint64 { return r.skipped }

// Broken returns the terminal stream error if the Reader is poisoned.
func (r *Reader) Broken() error { return r.broken }

// ReadFrame blocks for the next frame and returns its header and
// payload view.
func (r *Reader) ReadFrame() (Header, []byte, error) {
	if r.broken != nil {
		return Header{}, nil, r.broken
	}
	hb, err := r.br.Peek(HeaderSize)
	if err != nil {
		// Peek is non-destructive: nothing was consumed, so a timeout
		// here (idle connection) leaves the stream retryable.
		return Header{}, nil, err
	}
	h, err := ParseHeader(hb)
	if err != nil {
		if !r.resync {
			r.broken = err
			return Header{}, nil, err
		}
		h, err = r.resyncScan()
		if err != nil {
			return Header{}, nil, err
		}
	}
	if _, err := r.br.Discard(HeaderSize); err != nil {
		r.broken = err
		return Header{}, nil, err
	}
	if cap(r.payload) < h.PayloadLen {
		r.payload = make([]byte, h.PayloadLen)
	}
	r.payload = r.payload[:h.PayloadLen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		// Mid-payload failure: part of the frame is consumed and the
		// stream can no longer be framed. Poison.
		r.broken = err
		return Header{}, nil, err
	}
	return h, r.payload, nil
}

// resyncScan discards bytes until a plausible frame header starts at
// the read position. It poisons the Reader when the scan window is
// exhausted or the connection fails mid-scan.
func (r *Reader) resyncScan() (Header, error) {
	var skipped uint64
	for {
		if _, err := r.br.Discard(1); err != nil {
			r.broken = err
			return Header{}, err
		}
		skipped++
		if skipped > maxResyncSkip {
			r.broken = ErrDesync
			return Header{}, ErrDesync
		}
		hb, err := r.br.Peek(HeaderSize)
		if err != nil {
			r.broken = err
			return Header{}, err
		}
		h, perr := ParseHeader(hb)
		if perr != nil {
			continue
		}
		if h.Op < OpHello || h.Op > OpError {
			continue // magic+version matched but the op is garbage
		}
		r.desyncs++
		r.skipped += skipped
		return h, nil
	}
}

// FrameBuffered reports whether a complete frame is already buffered,
// so a server can keep draining pipelined requests into one micro-batch
// without blocking on the socket.
func (r *Reader) FrameBuffered() bool {
	if r.broken != nil {
		return false
	}
	if r.br.Buffered() < HeaderSize {
		return false
	}
	b, err := r.br.Peek(HeaderSize)
	if err != nil {
		return false
	}
	h, err := ParseHeader(b)
	if err != nil {
		// Let ReadFrame surface the protocol error (or resync).
		return true
	}
	return r.br.Buffered() >= HeaderSize+h.PayloadLen
}

// ModelInfo is a connection-scoped model binding resolved by Hello.
type ModelInfo struct {
	ID     uint16
	Key    string
	NumDet int
	// NumMech and NumObs size the result vectors (SizeResult).
	NumMech int
	NumObs  int
}

// Client is a simple synchronous/pipelined wire client used by
// cmd/decodeload, the router's backends and the test suites. Not safe
// for concurrent use; open one Client per goroutine.
//
// In-flight accounting: QueueDecode/QueueDecodeTraced record the
// request id, and ReadResult/ReadResultTimed reconcile responses
// against that FIFO — so when the connection dies mid-pipeline, the
// caller can claim exactly one terminal outcome for every queued
// request: answered ids via the normal return path, ids whose
// responses a stream resync destroyed via TakeLost, and everything
// still unanswered at death via DrainPending. The raw QueueFrame /
// ReadFrame relay path is untracked — the router keeps its own lane
// accounting.
type Client struct {
	conn      net.Conn
	r         *Reader
	wbuf      []byte
	ioTimeout time.Duration
	nextReqID uint64
	pending   []uint64 // queued req-ids awaiting responses, FIFO
	lost      []uint64 // req-ids whose responses a desync skipped
	err       error    // terminal transport/protocol error (poison)
}

// Dial connects to a wire listener. ioTimeout, when non-zero, bounds
// every subsequent read/write via connection deadlines.
func Dial(addr string, dialTimeout, ioTimeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best-effort: latency over batching at the kernel layer
	}
	return NewClient(conn, ioTimeout), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn, ioTimeout time.Duration) *Client {
	return &Client{conn: conn, r: NewReader(conn), ioTimeout: ioTimeout}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// EnableResync opts the client's stream into scan-and-resync on
// corrupt headers (see Reader.EnableResync).
func (c *Client) EnableResync() { c.r.EnableResync() }

// Desyncs returns how many stream resyncs this connection performed.
func (c *Client) Desyncs() uint64 { return c.r.Desyncs() }

// Err returns the terminal error if the client poisoned itself after a
// transport or attribution failure; nil while the connection is usable.
func (c *Client) Err() error { return c.err }

// Pending returns how many queued requests still await a response.
func (c *Client) Pending() int { return len(c.pending) }

// TakeLost returns the request ids whose responses were destroyed by a
// stream desync (skipped during resync) and clears the list. The
// returned slice aliases internal storage; consume it before the next
// read.
func (c *Client) TakeLost() []uint64 {
	l := c.lost
	c.lost = c.lost[:0]
	return l
}

// DrainPending returns every request id still awaiting a response and
// clears the accounting — the terminal-outcome sweep a caller runs
// when the connection dies mid-pipeline. The returned slice aliases
// internal storage; consume it before reusing the client.
func (c *Client) DrainPending() []uint64 {
	p := c.pending
	c.pending = c.pending[:0]
	return p
}

// fail poisons the client with its first terminal error.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Client) deadline() time.Time {
	if c.ioTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.ioTimeout)
}

// Hello resolves key to a connection-scoped model id and dimensions.
func (c *Client) Hello(key string) (ModelInfo, error) {
	c.nextReqID++
	id := c.nextReqID
	c.wbuf = AppendHello(c.wbuf[:0], id, key)
	if err := c.Flush(); err != nil {
		return ModelInfo{}, err
	}
	if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
		return ModelInfo{}, err
	}
	h, payload, err := c.r.ReadFrame()
	if err != nil {
		c.fail(err)
		return ModelInfo{}, err
	}
	switch h.Op {
	case OpHelloAck:
		det, mech, obs, err := ParseHelloAck(payload)
		if err != nil {
			return ModelInfo{}, err
		}
		return ModelInfo{ID: h.ModelID, Key: key, NumDet: det, NumMech: mech, NumObs: obs}, nil
	case OpError:
		status, msg, perr := ParseError(payload)
		if perr != nil {
			return ModelInfo{}, perr
		}
		return ModelInfo{}, &StatusError{Status: status, Msg: msg}
	}
	return ModelInfo{}, fmt.Errorf("wire: hello %q: unexpected %s frame", key, h.Op)
}

// QueueDecode appends an OpDecode frame to the write buffer without
// flushing, enabling request pipelining (the server coalesces buffered
// frames into one micro-batch). The request id joins the in-flight
// FIFO.
func (c *Client) QueueDecode(modelID uint16, reqID uint64, syndrome gf2.Vec) {
	c.wbuf = AppendDecode(c.wbuf, modelID, reqID, syndrome)
	c.pending = append(c.pending, reqID)
}

// QueueDecodeTraced appends an OpDecode frame carrying the telemetry
// trace block (FlagTelemetry set) without flushing: the traced variant
// of QueueDecode.
func (c *Client) QueueDecodeTraced(modelID uint16, reqID uint64, syndrome gf2.Vec, tc TraceContext) {
	c.wbuf = AppendDecodeTraced(c.wbuf, modelID, reqID, syndrome, tc)
	c.pending = append(c.pending, reqID)
}

// QueueFrame appends a raw, already-encoded payload under a fresh
// header without flushing: the router's relay path. Untracked — the
// caller owns response accounting.
func (c *Client) QueueFrame(op Op, flags Flags, modelID uint16, reqID uint64, payload []byte) {
	c.wbuf = AppendFrame(c.wbuf, op, flags, modelID, reqID, payload)
}

// ReadFrame blocks for the next raw frame under the client's IO
// deadline: the router's relay path. The payload aliases an internal
// buffer and is valid only until the next read.
func (c *Client) ReadFrame() (Header, []byte, error) {
	if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
		return Header{}, nil, err
	}
	return c.r.ReadFrame()
}

// ReadFrameTimeout is ReadFrame under a one-shot deadline d instead of
// the client's configured IO timeout: the hedged-dispatch probe read.
// A timeout on the frame header is non-destructive (the stream stays
// framed) so the caller may re-read with the full deadline.
func (c *Client) ReadFrameTimeout(d time.Duration) (Header, []byte, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return Header{}, nil, err
	}
	return c.r.ReadFrame()
}

// Flush writes all queued frames in one conn write.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	if len(c.wbuf) == 0 {
		return nil
	}
	if err := c.conn.SetWriteDeadline(c.deadline()); err != nil {
		return err
	}
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if err != nil {
		c.fail(err)
	}
	return err
}

// readTracked reads the next response frame and reconciles it against
// the in-flight FIFO: in-order ids pop normally; an id deeper in the
// FIFO means the stream resynced over the skipped responses, which
// move to the lost list; an id we never queued means attribution is no
// longer trustworthy and the client poisons itself — a payload is
// never attributed to the wrong request.
func (c *Client) readTracked() (Header, []byte, error) {
	if c.err != nil {
		return Header{}, nil, c.err
	}
	if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
		return Header{}, nil, err
	}
	h, payload, err := c.r.ReadFrame()
	if err != nil {
		c.fail(err)
		return Header{}, nil, err
	}
	if len(c.pending) == 0 {
		return h, payload, nil // untracked usage (raw frames only)
	}
	idx := -1
	for i, id := range c.pending {
		if id == h.ReqID {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.fail(ErrReqIDMismatch)
		return Header{}, nil, ErrReqIDMismatch
	}
	c.lost = append(c.lost, c.pending[:idx]...)
	// Pop by compacting in place: re-slicing the head forward would
	// give capacity away and make every pipelined request re-grow the
	// queue from nothing.
	c.pending = c.pending[:copy(c.pending, c.pending[idx+1:])]
	return h, payload, nil
}

// ReadResult blocks for the next response frame and parses it into
// res. OpError frames are surfaced as a Result with the error's status
// class, so every request reaches exactly one terminal outcome through
// the same return path; only transport and protocol failures return a
// non-nil error.
func (c *Client) ReadResult(res *Result) (Header, error) {
	h, payload, err := c.readTracked()
	if err != nil {
		return Header{}, err
	}
	switch h.Op {
	case OpResult:
		return h, ParseResultInto(res, payload)
	case OpError:
		status, _, perr := ParseError(payload)
		if perr != nil {
			return Header{}, perr
		}
		res.Status = status
		return h, nil
	}
	return Header{}, ErrUnexpectedFrame
}

// ReadResultTimed blocks for the next response frame and parses it
// into res plus, when the frame carries the telemetry extension, the
// server-timing block into st. It reports whether st was filled.
// OpError frames surface as a Result with the error's status class and
// no timing, mirroring ReadResult.
func (c *Client) ReadResultTimed(res *Result, st *ServerTiming) (Header, bool, error) {
	h, payload, err := c.readTracked()
	if err != nil {
		return Header{}, false, err
	}
	switch h.Op {
	case OpResult:
		timed, perr := ParseResultTimedInto(res, st, h.Flags, payload)
		return h, timed, perr
	case OpError:
		status, _, perr := ParseError(payload)
		if perr != nil {
			return Header{}, false, perr
		}
		res.Status = status
		return h, false, nil
	}
	return Header{}, false, ErrUnexpectedFrame
}

// Decode is the one-shot request/response convenience: queue one
// syndrome, flush, read its result. The response header's flags carry
// the replica health bits.
func (c *Client) Decode(modelID uint16, reqID uint64, syndrome gf2.Vec, res *Result) (Flags, error) {
	c.QueueDecode(modelID, reqID, syndrome)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	h, err := c.ReadResult(res)
	if err != nil {
		return 0, err
	}
	if h.ReqID != reqID {
		return 0, ErrReqIDMismatch
	}
	return h.Flags, nil
}

// Ping round-trips a health probe and returns the server's health
// flags.
func (c *Client) Ping() (Flags, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.nextReqID++
	id := c.nextReqID
	c.wbuf = AppendPing(c.wbuf, id)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
		return 0, err
	}
	h, _, err := c.r.ReadFrame()
	if err != nil {
		c.fail(err)
		return 0, err
	}
	if h.Op != OpPong || h.ReqID != id {
		return 0, ErrUnexpectedFrame
	}
	return h.Flags, nil
}

// Connection-level protocol errors.
var (
	ErrUnexpectedFrame = errors.New("wire: unexpected frame type")
	ErrReqIDMismatch   = errors.New("wire: response request id does not match")
	// ErrDesync marks a stream whose resync scan found no plausible
	// frame header within the scan window: the connection is
	// unrecoverable and must be redialed.
	ErrDesync = errors.New("wire: stream desync: no frame boundary found")
)

// StatusError is a request-level failure carried by an OpError frame:
// the request was understood and answered, but with an error class.
// Distinguishable (errors.As) from transport failures, which have no
// status.
type StatusError struct {
	Status Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("wire: %s: %s", e.Status, e.Msg)
}
