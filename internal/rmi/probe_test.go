package rmi

import (
	"net"
	"testing"
	"time"

	"repro/internal/channel/secure"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// TestServeSurvivesBareProbe connects to the secure listener and hangs
// up without a handshake, as a port probe does. Serve must log the
// failed handshake and keep accepting: a quoting call afterwards is
// served.
func TestServeSurvivesBareProbe(t *testing.T) {
	w := &testWorld{serverKey: sfkey.FromSeed([]byte("server-key"))}
	w.srv = NewServer()
	dropped := make(chan struct{}, 1)
	w.srv.Logf = func(string, ...any) {
		select {
		case dropped <- struct{}{}:
		default:
		}
	}
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
