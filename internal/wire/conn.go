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

// Reader reads frames off a connection. The payload returned by
// ReadFrame aliases an internal buffer and is valid only until the
// next ReadFrame call — parse it (ParseDecodeInto, ParseResultInto)
// before reading on. Not safe for concurrent use.
//
// Stream discipline: the header is Peeked before being consumed, so a
// read deadline firing mid-header leaves the stream intact and the
// read can simply be retried. A header that fails ParseHeader, or a
// deadline (or any read error) firing mid-payload, poisons the Reader:
// every subsequent ReadFrame fails fast with the original error — a
// stream that has lost its framing is never re-parsed from the middle.
type Reader struct {
	br      *bufio.Reader
	payload []byte
	broken  error
}

// NewReader wraps r in a framed reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, readerBufSize)}
}

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
		r.broken = err
		return Header{}, nil, err
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
		// Let ReadFrame surface the protocol error and poison the stream.
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
// request id, and ReadResult/ReadResultTimed require every response to
// answer the oldest request still queued, since responses arrive in
// request order. A response with any other id poisons the client
// (ErrReqIDMismatch), as does a transport error or a frame the Reader
// rejects: a payload is never attributed to the wrong request, and the
// caller closes the connection with the requests still queued on it
// unanswered. The raw QueueFrame / ReadFrame relay path is untracked —
// the router keeps its own lane accounting.
type Client struct {
	conn      net.Conn
	r         *Reader
	wbuf      []byte
	ioTimeout time.Duration
	nextReqID uint64
	pending   []uint64 // queued req-ids awaiting responses, FIFO
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

// Err returns the terminal error if the client poisoned itself after a
// transport or attribution failure; nil while the connection is usable.
func (c *Client) Err() error { return c.err }

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
	if h.ReqID != id {
		c.fail(ErrReqIDMismatch)
		return ModelInfo{}, ErrReqIDMismatch
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
	return ModelInfo{}, fmt.Errorf("wire: hello %q: %w: %s", key, ErrUnexpectedFrame, h.Op)
}

// QueueDecode is QueueDecodeTraced with a zero trace block: the
// replica (or router) issues the trace id.
func (c *Client) QueueDecode(modelID uint16, reqID uint64, syndrome gf2.Vec) {
	c.QueueDecodeTraced(modelID, reqID, syndrome, TraceContext{})
}

// QueueDecodeTraced appends an OpDecode frame carrying tc to the write
// buffer without flushing, enabling request pipelining (the server
// coalesces buffered frames into one micro-batch). The request id joins
// the in-flight FIFO.
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

// readTracked reads the next response frame and checks it against the
// in-flight FIFO: it must answer the oldest queued request. Any other
// id means attribution is no longer trustworthy and the client poisons
// itself — a payload is never attributed to the wrong request.
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
	if h.ReqID != c.pending[0] {
		c.fail(ErrReqIDMismatch)
		return Header{}, nil, ErrReqIDMismatch
	}
	// Pop by compacting in place: re-slicing the head forward would
	// give capacity away and make every pipelined request re-grow the
	// queue from nothing.
	c.pending = c.pending[:copy(c.pending, c.pending[1:])]
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

// ReadResultTimed is ReadResult that also copies the result's timing
// into st. It reports whether st was filled: true for every OpResult
// frame, false for an OpError frame, which carries no timing.
func (c *Client) ReadResultTimed(res *Result, st *ServerTiming) (Header, bool, error) {
	h, err := c.ReadResult(res)
	if err != nil || h.Op != OpResult {
		return h, false, err
	}
	*st = res.ServerTiming
	return h, true, nil
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

// Connection-level protocol errors: a frame that does not answer the
// request it should. IsProtocolError reports both.
var (
	ErrUnexpectedFrame = errors.New("wire: unexpected frame type")
	ErrReqIDMismatch   = errors.New("wire: response request id does not match")
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
