package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/principal"
	"repro/internal/sfkey"
)

// maxFrame bounds a single encrypted record.
const maxFrame = 1 << 20

// Conn is an established secure channel; it implements channel.Conn.
type Conn struct {
	raw       net.Conn
	localKey  sfkey.PublicKey
	peerKey   sfkey.PublicKey
	sessionID []byte

	send cipher.AEAD
	recv cipher.AEAD
	// counters provide unique nonces per direction.
	sendSeq uint64
	recvSeq uint64

	readBuf []byte // plaintext not yet consumed
}

var _ channel.Conn = (*Conn)(nil)

// Client performs the initiator handshake over an existing transport.
func Client(raw net.Conn, id *Identity) (*Conn, error) {
	return newConn(raw, id, true)
}

// Server performs the responder handshake over an existing transport.
func Server(raw net.Conn, id *Identity) (*Conn, error) {
	return newConn(raw, id, false)
}

func newConn(raw net.Conn, id *Identity, isClient bool) (*Conn, error) {
	hs, err := handshake(raw, id, isClient)
	if err != nil {
		raw.Close()
		return nil, err
	}
	send, err := newAEAD(hs.sendKey)
	if err != nil {
		raw.Close()
		return nil, err
	}
	recv, err := newAEAD(hs.recvKey)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &Conn{
		raw:       raw,
		localKey:  id.Priv.Public(),
		peerKey:   hs.peerKey,
		sessionID: hs.sessionID,
		send:      send,
		recv:      recv,
	}, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// PeerKey implements channel.Conn.
func (c *Conn) PeerKey() sfkey.PublicKey { return c.peerKey }

// LocalKey implements channel.Conn.
func (c *Conn) LocalKey() sfkey.PublicKey { return c.localKey }

// SessionID identifies this channel instance; both ends derive the
// same value from the key exchange.
func (c *Conn) SessionID() []byte { return append([]byte(nil), c.sessionID...) }

// Principal implements channel.Conn: the channel principal whose
// binding is the session id ("KCH" in Figure 3).
func (c *Conn) Principal() principal.Channel {
	return principal.ChannelOf(principal.ChannelSecure, c.sessionID)
}

// Kind implements channel.Conn.
func (c *Conn) Kind() string { return principal.ChannelSecure }

func (c *Conn) nonce(seq uint64) []byte {
	n := make([]byte, 12)
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

// Write encrypts p as a single framed record.
func (c *Conn) Write(p []byte) (int, error) {
	if len(p) > maxFrame {
		// Split oversized writes into frames.
		total := 0
		for len(p) > 0 {
			n := len(p)
			if n > maxFrame {
				n = maxFrame
			}
			if _, err := c.Write(p[:n]); err != nil {
				return total, err
			}
			total += n
			p = p[n:]
		}
		return total, nil
	}
	ct := c.send.Seal(nil, c.nonce(c.sendSeq), p, nil)
	c.sendSeq++
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(ct)))
	if _, err := c.raw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := c.raw.Write(ct); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read returns decrypted bytes, buffering record remainders.
func (c *Conn) Read(p []byte) (int, error) {
	if len(c.readBuf) == 0 {
		var hdr [4]byte
		if _, err := readFull(c.raw, hdr[:]); err != nil {
			return 0, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame+uint32(c.recv.Overhead()) {
			return 0, fmt.Errorf("secure: oversized frame %d", n)
		}
		ct := make([]byte, n)
		if _, err := readFull(c.raw, ct); err != nil {
			return 0, err
		}
		pt, err := c.recv.Open(nil, c.nonce(c.recvSeq), ct, nil)
		if err != nil {
			return 0, fmt.Errorf("secure: record authentication failed: %w", err)
		}
		c.recvSeq++
		c.readBuf = pt
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

func readFull(r net.Conn, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := r.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Dialer dials TCP and runs the client handshake; it implements
// channel.Dialer (the SSHSocketFactory analog of Figure 4).
type Dialer struct {
	ID *Identity
}

// Dial implements channel.Dialer.
func (d Dialer) Dial(addr string) (channel.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Client(raw, d.ID)
}

// handshakeTimeout bounds the server handshake: a peer that connects
// and then stalls holds its handshake goroutine and socket this long
// at most.
const handshakeTimeout = 10 * time.Second

// Listener accepts TCP connections and runs the server handshake.
// Each handshake runs on its own goroutine, so a peer that connects
// and sends nothing delays only its own connection, never the next
// Accept.
type Listener struct {
	ID *Identity
	L  net.Listener

	start  sync.Once
	ready  chan accepted // finished handshakes, handed to Accept
	closed chan struct{} // closed once the accept loop has exited
	err    error         // why the accept loop exited; read after closed
}

type accepted struct {
	c   channel.Conn
	err error
}

// Listen starts a secure listener on addr.
func Listen(addr string, id *Identity) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ID: id, L: l}, nil
}

// Accept implements channel.Listener. A failed handshake closes that
// connection and returns an error wrapping channel.ErrHandshake.
func (l *Listener) Accept() (channel.Conn, error) {
	l.start.Do(l.run)
	select {
	case a := <-l.ready:
		return a.c, a.err
	case <-l.closed:
		return nil, l.err
	}
}

// run starts the accept loop; it ends when the underlying listener
// fails or is closed.
func (l *Listener) run() {
	l.ready = make(chan accepted)
	l.closed = make(chan struct{})
	go func() {
		for {
			raw, err := l.L.Accept()
			if err != nil {
				l.err = err
				close(l.closed)
				return
			}
			go l.handshake(raw)
		}
	}()
}

// handshake runs the server handshake on raw under handshakeTimeout
// and hands the outcome to Accept, or drops it once the listener is
// closed.
func (l *Listener) handshake(raw net.Conn) {
	peer := raw.RemoteAddr()
	// SetDeadline fails only on a closed socket, which the handshake
	// then fails on too.
	_ = raw.SetDeadline(time.Now().Add(handshakeTimeout))
	var a accepted
	if c, err := Server(raw, l.ID); err != nil {
		a.err = fmt.Errorf("%w with %s: %w", channel.ErrHandshake, peer, err)
	} else {
		_ = raw.SetDeadline(time.Time{})
		a.c = c
	}
	select {
	case l.ready <- a:
	case <-l.closed:
		if a.c != nil {
			a.c.Close()
		}
	}
}

// Close implements channel.Listener. It returns once the accept loop
// has exited; handshakes still in progress drop their connections.
func (l *Listener) Close() error {
	l.start.Do(l.run)
	err := l.L.Close()
	<-l.closed
	return err
}

// Addr implements channel.Listener.
func (l *Listener) Addr() net.Addr { return l.L.Addr() }
