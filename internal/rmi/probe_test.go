package rmi

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/channel/secure"
	"repro/internal/principal"
	"repro/internal/prover"
	"repro/internal/sfkey"
)

// serveEcho starts a server exporting the echo object on a secure
// loopback listener; Serve's result arrives on the returned channel.
func serveEcho(t *testing.T, logf func(string, ...any)) (*testWorld, <-chan error) {
	t.Helper()
	w := &testWorld{serverKey: sfkey.FromSeed([]byte("server-key"))}
	w.srv = NewServer()
	w.srv.Logf = logf
	if err := w.srv.Register("echo", &EchoService{}, principal.KeyOf(w.serverKey.Public()), nil); err != nil {
		t.Fatal(err)
	}
	l, err := secure.Listen("127.0.0.1:0", &secure.Identity{Priv: w.serverKey})
	if err != nil {
		t.Fatal(err)
	}
	w.addr = l.Addr().String()
	served := make(chan error, 1)
	go func() { served <- w.srv.Serve(l) }()
	t.Cleanup(func() { l.Close() })
	return w, served
}

// TestServeSurvivesBareProbe connects to the secure listener and hangs
// up without a handshake, as a port probe does. Serve must log the
// failed handshake and keep accepting: a quoting call afterwards is
// served.
func TestServeSurvivesBareProbe(t *testing.T) {
	dropped := make(chan struct{}, 1)
	w, served := serveEcho(t, func(string, ...any) {
		select {
		case dropped <- struct{}{}:
		default:
		}
	})

	probe, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	select {
	case <-dropped:
	case err := <-served:
		t.Fatalf("Serve returned on a failed handshake: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("failed handshake was not logged")
	}

	c := w.issuerClient(t)
	var reply EchoReply
	if err := c.CallQuoting(quotee(0), "echo", "Echo", EchoArgs{Msg: "after probe"}, &reply); err != nil {
		t.Fatalf("call after probe: %v", err)
	}
	if reply.Msg != "after probe" {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestServeSurvivesSilentPeer holds a connection open without sending
// a handshake. The accept path must not wait on it: a second client's
// quoting call completes well inside the handshake timeout.
func TestServeSurvivesSilentPeer(t *testing.T) {
	w, _ := serveEcho(t, func(string, ...any) {})
	silent, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// The client runs on its own goroutine: against an accept loop
	// stuck on the silent peer, even its dial would never return.
	done := make(chan error, 1)
	go func() {
		pv := prover.New()
		pv.AddClosure(prover.NewKeyClosure(w.serverKey))
		id, err := secure.NewIdentity()
		if err != nil {
			done <- err
			return
		}
		c, err := Dial(secure.Dialer{ID: id}, w.addr, pv)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		var reply EchoReply
		err = c.CallQuoting(quotee(0), "echo", "Echo", EchoArgs{Msg: "beside a silent peer"}, &reply)
		if err == nil && reply.Msg != "beside a silent peer" {
			err = fmt.Errorf("reply = %+v", reply)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call beside a silent peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quoting call stalled behind a silent peer's handshake")
	}
}
