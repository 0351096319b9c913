package httpsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memPipe is one direction of an in-memory connection: a byte queue the
// writing end appends to and the reading end drains. Unlike net.Pipe, a
// Write never waits for the peer's Read — bytes queue until read — so a
// request or response costs one copy in and one copy out rather than a
// synchronous rendezvous per Write.
//
// The reader's deadline lives here too, because a blocked Read waits on
// this pipe's cond: a deadline timer (or a deadline set in the past)
// broadcasts the cond and the Read returns os.ErrDeadlineExceeded.
// net/http's server relies on that to abort its background read.
type memPipe struct {
	mu   sync.Mutex
	cond sync.Cond
	buf  []byte
	off  int // read offset into buf

	wclosed bool // the writing end closed: drain, then io.EOF
	rclosed bool // the reading end closed: reads and writes fail

	rdeadline deadline // bounds Read on the reading end
	wdeadline deadline // bounds Write on the writing end
}

// deadline is one direction's deadline state: expired flips when the
// deadline passes, and gen discards timers armed for an earlier deadline.
type deadline struct {
	expired bool
	gen     uint64
	timer   *time.Timer
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

// memConnPair returns the two ends of a buffered in-memory connection.
func memConnPair() (net.Conn, net.Conn) {
	ab, ba := newMemPipe(), newMemPipe()
	return &memConn{in: ba, out: ab}, &memConn{in: ab, out: ba}
}

// memConn is one end of a memConnPair: it reads from in and writes to out.
// It deliberately has no CloseWrite: net/http's server would half-close a
// conn that has one and then sleep out its RST-avoidance delay.
type memConn struct {
	in, out *memPipe
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "httpsim" }

// Read implements net.Conn. Queued bytes stay readable after the peer
// closes; io.EOF follows once they are drained.
func (c *memConn) Read(b []byte) (int, error) {
	p := c.in
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case p.rclosed:
			return 0, io.ErrClosedPipe
		case p.rdeadline.expired:
			return 0, os.ErrDeadlineExceeded
		case p.off < len(p.buf):
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			return n, nil
		case p.wclosed:
			return 0, io.EOF
		}
		p.cond.Wait()
	}
}

// Write implements net.Conn. It never blocks: the bytes queue for the
// peer, or the write fails if either end has closed.
func (c *memConn) Write(b []byte) (int, error) {
	p := c.out
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.wclosed || p.rclosed:
		return 0, io.ErrClosedPipe
	case p.wdeadline.expired:
		return 0, os.ErrDeadlineExceeded
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

// Close implements net.Conn: local reads and writes fail from now on, a
// peer blocked in Read wakes to the queued bytes and then io.EOF, and the
// peer's further writes fail. Idempotent.
func (c *memConn) Close() error {
	c.in.mu.Lock()
	c.in.rclosed = true
	c.in.rdeadline.stop()
	c.in.cond.Broadcast()
	c.in.mu.Unlock()

	c.out.mu.Lock()
	c.out.wclosed = true
	c.out.wdeadline.stop()
	c.out.cond.Broadcast()
	c.out.mu.Unlock()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

// SetDeadline implements net.Conn.
func (c *memConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. A time in the past fails a pending
// Read immediately; the zero time clears the deadline.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.set(&c.in.rdeadline, t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block, so the
// deadline only decides whether a later Write is refused.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.out.set(&c.out.wdeadline, t)
	return nil
}

// set re-arms d for t. A stale timer whose Stop lost the race finds gen
// moved on and leaves the new deadline alone.
func (p *memPipe) set(d *deadline, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d.stop()
	d.gen++
	d.expired = false
	if t.IsZero() {
		return
	}
	wait := time.Until(t)
	if wait <= 0 {
		d.expired = true
		p.cond.Broadcast()
		return
	}
	gen := d.gen
	d.timer = time.AfterFunc(wait, func() {
		p.mu.Lock()
		if d.gen == gen {
			d.expired = true
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	})
}

// stop disarms the pending timer, if any. Called with the pipe locked.
func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}
