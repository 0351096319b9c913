package httpsim

import (
	"io"
	"net"
	"time"

	"toplists/internal/faults"
)

// truncateAfter is how many response bytes a DialTruncate connection lets
// through before cutting off — enough for a partial status line, never a
// complete set of headers.
const truncateAfter = 24

// stallLatency is how long a DialStall hangs before failing with
// faults.ErrStalled. It is fixed and far below any attempt timeout, so a
// stalled attempt always resolves to the same transient error on its own —
// classification never rides on a timeout racing the scheduler.
const stallLatency = 50 * time.Millisecond

// resetConn models an RST mid-exchange: the first read tears the conn down
// and surfaces a reset. Closing the underlying conn ends the server side's
// exchange too: its reads see EOF and its further writes fail.
type resetConn struct {
	net.Conn
}

func (c *resetConn) Read(p []byte) (int, error) {
	c.Conn.Close()
	return 0, faults.ErrReset
}

// truncConn models a response cut off mid-headers: it passes through a few
// bytes, then closes the conn and reports EOF.
type truncConn struct {
	net.Conn
	remain int
}

func (c *truncConn) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > c.remain {
		p = p[:c.remain]
	}
	n, err := c.Conn.Read(p)
	c.remain -= n
	return n, err
}
