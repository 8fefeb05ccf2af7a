// Package transport carries the chopped-transaction pipeline over real
// TCP sockets. It implements the simnet.Net seam — the same Frame /
// BatchFrame discipline the batching layer (internal/queue) already
// speaks — so a cluster runs unchanged over the in-process simulated
// WAN or over the wire, and the two stay conformance-tested twins.
//
// The wire format reuses the WAL's framing discipline
// (internal/storage/wal): every frame is
//
//	[len u32 LE][crc32(payload) u32 LE][payload]
//
// with the payload one simnet.Message on the connection's gob stream:
// each connection carries one gob stream, so a type's descriptor
// crosses it once, in the first frame that uses the type. A frame is
// still the unit of loss: a torn or corrupt frame kills the connection
// (the reader can no longer trust its offset or its stream), both ends
// start a fresh stream on the redial, and the reliable layers above —
// recoverable-queue retransmission and watermark dedup — recover,
// exactly as they do for a dropped simnet frame. Frames shed before
// the wire (a full send queue, emulated loss) are never encoded, so
// they cannot desynchronize a stream. Payload types inside Message
// ride gob and must be registered via queue.RegisterPayloadType in
// every process, which the queue and site packages already do for the
// whole chopped-queue protocol.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"asynctp/internal/simnet"
)

// frameHeader is [len u32][crc u32].
const frameHeader = 8

// MaxFrame bounds a frame payload. The deepest legitimate frame is one
// BatchFrame of maxBatch coalesced queue messages; 16 MiB (the WAL's
// bound) leaves orders of magnitude of headroom while keeping a
// corrupt length field from asking the decoder for gigabytes.
const MaxFrame = 16 << 20

// Codec errors. Decoding distinguishes "frame not yet complete"
// (io.ErrUnexpectedEOF from a stream read) from structural corruption;
// both kill a TCP connection, but tests and the fuzzer assert the
// decoder never panics or over-allocates on either.
var (
	// ErrFrameTooLarge reports a length field beyond MaxFrame: either
	// corruption or an incompatible peer. The connection is unusable.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size bound")
	// ErrFrameCorrupt reports a CRC mismatch or a zero-length frame.
	ErrFrameCorrupt = errors.New("transport: frame failed checksum")
	// ErrBadPayload reports a frame whose bytes do not decode to exactly
	// one simnet.Message (unregistered payload type, truncated or
	// trailing gob data, a stream out of step with its sender).
	ErrBadPayload = errors.New("transport: frame payload does not decode")
)

// AppendFrame appends the framed payload to dst and returns the
// extended slice. This is the encode hot path: with sufficient
// capacity in dst it performs zero allocations (AllocsPerRun-pinned),
// so each connection's writer reuses one frame buffer.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameLength validates a header's length field BEFORE anything is
// allocated or sliced, so a corrupt length can never make a decoder
// over-allocate.
func frameLength(hdr []byte) (int, error) {
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 {
		return 0, ErrFrameCorrupt
	}
	if length > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(length), nil
}

// streamEncoder is the sending half of one connection's gob stream. A
// gob stream describes each type once — the first frame that carries a
// type also carries its descriptor — so the encoder lives exactly as
// long as its connection and is replaced on every (re)dial, when the
// receiver starts a fresh decoder too.
type streamEncoder struct {
	enc   *gob.Encoder
	out   bytes.Buffer // this frame's gob output, reused
	frame []byte       // this frame on the wire, reused
}

func newStreamEncoder() *streamEncoder {
	e := &streamEncoder{}
	e.enc = gob.NewEncoder(&e.out)
	return e
}

// encode encodes msg onto the stream and returns it as one wire frame.
// The slice is only valid until the next call. An error poisons the
// stream: gob may already count type descriptors as sent that no frame
// will carry, so the caller must drop the connection and this encoder.
func (e *streamEncoder) encode(msg simnet.Message) ([]byte, error) {
	e.out.Reset()
	if err := e.enc.Encode(&msg); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	e.frame = AppendFrame(e.frame[:0], e.out.Bytes())
	return e.frame, nil
}

// streamDecoder is the receiving half of one connection's gob stream:
// one gob.Decoder fed frame by frame, after each frame's length and CRC
// checks, so type descriptors are parsed once per connection and the
// compiled decoders are reused. Every frame must hold exactly one
// message; anything else is corruption and kills the connection.
type streamDecoder struct {
	dec *gob.Decoder
	in  bytes.Reader // the current frame's payload
	buf []byte       // payload buffer, reused across frames
}

func newStreamDecoder() *streamDecoder {
	d := &streamDecoder{}
	// bytes.Reader is an io.ByteReader, so gob reads it directly
	// instead of wrapping it in a read-ahead bufio.Reader: the decoder
	// can never see past the frame it is handed.
	d.dec = gob.NewDecoder(&d.in)
	return d
}

// decode decodes one CRC-checked frame payload. The payload must be a
// whole number of gob messages — checked before gob sees it, so a
// corrupt gob count cannot make gob allocate for bytes the frame does
// not hold — and decoding one Message must consume all of it.
func (d *streamDecoder) decode(payload []byte) (simnet.Message, error) {
	if !wholeGobMessages(payload) {
		return simnet.Message{}, fmt.Errorf("%w: gob message counts do not tile the frame", ErrBadPayload)
	}
	d.in.Reset(payload)
	var msg simnet.Message
	if err := d.dec.Decode(&msg); err != nil {
		return simnet.Message{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if d.in.Len() != 0 {
		return simnet.Message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, d.in.Len())
	}
	return msg, nil
}

// readFrame reads and decodes the connection's next frame. io.EOF is
// returned only at a clean frame boundary; a connection dying mid-frame
// surfaces io.ErrUnexpectedEOF (the TCP analog of the WAL's torn tail).
func (d *streamDecoder) readFrame(r *bufio.Reader) (simnet.Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return simnet.Message{}, io.EOF // clean close between frames
		}
		return simnet.Message{}, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return simnet.Message{}, io.ErrUnexpectedEOF
	}
	length, err := frameLength(hdr[:])
	if err != nil {
		return simnet.Message{}, err
	}
	if cap(d.buf) < length {
		d.buf = make([]byte, length)
	}
	payload := d.buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return simnet.Message{}, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return simnet.Message{}, ErrFrameCorrupt
	}
	return d.decode(payload)
}

// wholeGobMessages reports whether b is a sequence of complete gob
// messages, each an unsigned byte count followed by that many bytes,
// ending exactly at len(b). The count encoding is gob's: one byte below
// 0x80, else the negated length of a big-endian uint of at most 8 bytes.
func wholeGobMessages(b []byte) bool {
	for len(b) > 0 {
		n := uint64(b[0])
		b = b[1:]
		if n >= 0x80 {
			k := 256 - int(n)
			if k > 8 || k > len(b) {
				return false
			}
			n = 0
			for _, c := range b[:k] {
				n = n<<8 | uint64(c)
			}
			b = b[k:]
		}
		if n == 0 || n > uint64(len(b)) {
			return false
		}
		b = b[n:]
	}
	return true
}

// EncodeFrame frames msg as the first frame of a fresh stream: the gob
// payload carries every type descriptor it needs, so DecodeFrame (or a
// fresh connection) decodes it on its own.
func EncodeFrame(msg simnet.Message) ([]byte, error) {
	return newStreamEncoder().encode(msg)
}

// DecodeFrame decodes one frame — the first frame of a fresh stream —
// from the front of b, returning the message and the number of bytes
// consumed. Errors:
//
//   - io.ErrUnexpectedEOF: b ends mid-frame (torn tail). consumed is 0.
//   - ErrFrameTooLarge / ErrFrameCorrupt: structural corruption; the
//     byte stream is unusable from here on.
//   - ErrBadPayload: framing intact but the gob payload is bad or is
//     not exactly one message.
//
// The length field is validated BEFORE allocating or slicing, so
// corrupt input can never make it over-allocate.
func DecodeFrame(b []byte) (msg simnet.Message, consumed int, err error) {
	if len(b) < frameHeader {
		return simnet.Message{}, 0, io.ErrUnexpectedEOF
	}
	length, err := frameLength(b)
	if err != nil {
		return simnet.Message{}, 0, err
	}
	total := frameHeader + length
	if len(b) < total {
		return simnet.Message{}, 0, io.ErrUnexpectedEOF
	}
	payload := b[frameHeader:total]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return simnet.Message{}, 0, ErrFrameCorrupt
	}
	if msg, err = newStreamDecoder().decode(payload); err != nil {
		return simnet.Message{}, 0, err
	}
	return msg, total, nil
}
