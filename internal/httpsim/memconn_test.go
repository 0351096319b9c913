package httpsim

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// readResult runs one Read on c in the background.
func readResult(c net.Conn, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, n))
		done <- err
	}()
	return done
}

func awaitErr(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Read still blocked", what)
		return nil
	}
}

// TestMemConnPastDeadlineUnblocksRead: a read deadline set in the past
// fails a pending Read with os.ErrDeadlineExceeded — net/http's server
// aborts its background read exactly this way — and clearing the deadline
// makes the conn readable again.
func TestMemConnPastDeadlineUnblocksRead(t *testing.T) {
	a, b := memConnPair()
	defer a.Close()
	defer b.Close()
	done := readResult(a, 1)
	time.Sleep(10 * time.Millisecond)
	a.SetReadDeadline(time.Unix(1, 0))
	err := awaitErr(t, done, "past deadline")
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read after past deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("deadline error %v is not a net.Error timeout", err)
	}

	a.SetReadDeadline(time.Time{})
	b.Write([]byte("x"))
	if err := awaitErr(t, readResult(a, 1), "cleared deadline"); err != nil {
		t.Fatalf("Read after clearing the deadline: %v", err)
	}
}

// TestMemConnFutureDeadline: a future read deadline fires on its own, and
// a deadline replaced before it fires never expires the new one.
func TestMemConnFutureDeadline(t *testing.T) {
	a, b := memConnPair()
	defer a.Close()
	defer b.Close()
	a.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	if err := awaitErr(t, readResult(a, 1), "future deadline"); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past a future deadline: %v, want os.ErrDeadlineExceeded", err)
	}

	a.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	a.SetReadDeadline(time.Time{})
	done := readResult(a, 1)
	time.Sleep(30 * time.Millisecond)
	b.Write([]byte("x"))
	if err := awaitErr(t, done, "replaced deadline"); err != nil {
		t.Fatalf("a replaced deadline still expired the conn: %v", err)
	}

	b.SetWriteDeadline(time.Unix(1, 0))
	if _, err := b.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Write past its deadline: %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestMemConnCloseWakesPeer: Close wakes a peer blocked in Read with
// io.EOF, and every later Write on either end fails.
func TestMemConnCloseWakesPeer(t *testing.T) {
	a, b := memConnPair()
	done := readResult(b, 1)
	time.Sleep(10 * time.Millisecond)
	a.Close()
	if err := awaitErr(t, done, "peer close"); err != io.EOF {
		t.Fatalf("Read after peer Close: %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Error("Write to a closed peer succeeded")
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("Write on a closed conn succeeded")
	}
	if _, err := a.Read(make([]byte, 1)); err == nil || err == io.EOF {
		t.Errorf("Read on a closed conn: %v, want a closed-conn error", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestMemConnQueuedBytesAfterClose: bytes written before the writer
// closes stay readable, in order and across short reads, before io.EOF.
func TestMemConnQueuedBytesAfterClose(t *testing.T) {
	a, b := memConnPair()
	defer b.Close()
	a.Write([]byte("hello, "))
	a.Write([]byte("world"))
	a.Close()
	var got []byte
	buf := make([]byte, 4)
	for {
		n, err := b.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
	if string(got) != "hello, world" {
		t.Fatalf("read %q after the writer closed, want %q", got, "hello, world")
	}
}

// TestFaultConnsClassifyTransient: over the buffered wire, a reset and a
// truncated exchange still fail the attempt transiently (retryable, never
// a classification), while the same request over a clean conn classifies.
func TestFaultConnsClassifyTransient(t *testing.T) {
	w, n := testNetwork(t)
	host := findSite(w, true).Domain
	wrapped := func(wrap func(net.Conn) net.Conn) *Prober {
		dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := n.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return wrap(c), nil
		}
		return NewProber(&http.Client{Transport: &http.Transport{
			DialContext: dial, DialTLSContext: dial, DisableKeepAlives: true,
		}})
	}
	for _, tc := range []struct {
		name string
		wrap func(net.Conn) net.Conn
		want attemptOutcome
	}{
		{"clean", func(c net.Conn) net.Conn { return c }, attemptResponse},
		{"reset", func(c net.Conn) net.Conn { return &resetConn{Conn: c} }, attemptTransient},
		{"truncate", func(c net.Conn) net.Conn { return &truncConn{Conn: c, remain: truncateAfter} }, attemptTransient},
	} {
		for _, scheme := range []string{"https", "http"} {
			if _, _, oc := wrapped(tc.wrap).tryOnce(context.Background(), host, scheme, 0); oc != tc.want {
				t.Errorf("%s over %s: attempt outcome %d, want %d", tc.name, scheme, oc, tc.want)
			}
		}
	}
}
