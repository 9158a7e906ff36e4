// Package channel defines the common shape of Snowflake's
// authenticated channels (paper section 5): a byte stream whose
// endpoints are bound to principals. Three implementations exist, one
// per hop-by-hop mechanism the paper built:
//
//   - channel/secure: the ssh-analog encrypted network channel (5.1);
//   - channel/local: the host-vouched in-process channel (5.2);
//   - channel/plain: an unauthenticated TCP stream, the baseline for
//     the measurements of section 7.2.
//
// Separating this interface from the mechanisms is the paper's
// policy/mechanism split (section 2.2): applications reason about
// authorization against the interface, and any mechanism that can
// state its guarantee ("messages from this channel speak for key K")
// plugs in.
package channel

import (
	"errors"
	"net"

	"repro/internal/principal"
	"repro/internal/sfkey"
)

// Conn is an authenticated connection. PeerKey returns the public key
// the mechanism has bound to the remote end (the zero key when the
// mechanism offers no authentication). Principal returns the channel
// principal — the entity that "says" everything read from the
// connection.
type Conn interface {
	net.Conn
	// PeerKey is the remote endpoint's channel key (K1 or K2 in
	// Figure 3); zero when unauthenticated.
	PeerKey() sfkey.PublicKey
	// LocalKey is this endpoint's channel key; zero when
	// unauthenticated.
	LocalKey() sfkey.PublicKey
	// Principal names this connection as a channel principal.
	Principal() principal.Channel
	// Kind names the mechanism ("secure", "local", "plain").
	Kind() string
}

// Dialer opens authenticated connections; the RMI layer accepts any
// Dialer, which is how a Snowflake application swaps hop-by-hop
// mechanisms without changing its authorization policy.
type Dialer interface {
	Dial(addr string) (Conn, error)
}

// ErrHandshake marks an Accept error confined to one connection: the
// peer connected but its channel handshake failed. The listener itself
// still works, so servers log such errors and keep accepting.
var ErrHandshake = errors.New("channel: handshake failed")

// Listener accepts authenticated connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() net.Addr
}
