package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"asynctp/internal/queue"
	"asynctp/internal/simnet"
)

// FuzzFrameDecode feeds arbitrary bytes to both frame decoders. The
// invariants under attack: never panic, never report consuming more
// bytes than exist, and never allocate anywhere near a corrupt length
// field's claim — a frame header promising 4 GiB must cost 8 bytes of
// header read, not 4 GiB of make(). Run via CI smoke (seconds) and the
// nightly long fuzz, like FuzzWALDecode.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	if frame, err := EncodeFrame(testMsg()); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // torn tail
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)-1] ^= 0x01 // CRC mismatch
		f.Add(flipped)
		f.Add(append(append([]byte(nil), frame...), frame...)) // two frames
	}
	var huge [frameHeader]byte
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF) // 4 GiB length claim
	f.Add(huge[:])
	f.Add(AppendFrame(nil, []byte("valid framing, garbage gob payload")))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, consumed, err := DecodeFrame(data)
		runtime.ReadMemStats(&after)
		// The slice decoder sees the whole input up front, so its
		// allocation is O(input): the payload view plus gob overhead,
		// never a corrupt length field's claim. 1 MiB of slack over 4x
		// input covers gob's buffers.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+1<<20 {
			t.Fatalf("slice-decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if err == nil {
			// A frame that decoded must re-frame to an equal prefix
			// modulo gob's nondeterministic map ordering — cheap sanity:
			// the re-encoded frame must itself decode.
			re, eerr := EncodeFrame(msg)
			if eerr != nil {
				t.Fatalf("decoded message does not re-encode: %v", eerr)
			}
			if _, _, derr := DecodeFrame(re); derr != nil {
				t.Fatalf("re-encoded frame does not decode: %v", derr)
			}
		} else if consumed != 0 {
			t.Fatalf("error %v yet consumed %d bytes", err, consumed)
		}

		// A connection's decoder must agree with the slice decoder on
		// whether the first frame of a fresh stream is sound (not
		// necessarily on the specific error: a slice sees torn framing
		// where a stream sees a short read). Unlike the slice decoder it
		// cannot see the input's true size, so it may allocate an
		// in-range length claim before the short read surfaces — but
		// never more than the MaxFrame bound.
		br := bufio.NewReader(bytes.NewReader(data))
		runtime.ReadMemStats(&before)
		_, serr := newStreamDecoder().readFrame(br)
		runtime.ReadMemStats(&after)
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: slice err=%v, stream err=%v", err, serr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame+uint64(4*len(data))+1<<20 {
			t.Fatalf("stream-decoding %d bytes allocated %d bytes", len(data), grew)
		}
	})
}

// FuzzStreamDecode attacks a connection's decoder mid-stream: after one
// valid first frame (which defines the stream's types), an arbitrary
// payload arrives with valid framing and CRC — the corruption the CRC
// cannot see, or a sender out of step. The decoder must never panic,
// never allocate beyond the frame it was handed, and reject any payload
// it cannot decode or does not consume exactly.
func FuzzStreamDecode(f *testing.F) {
	enc := newStreamEncoder()
	first, err := enc.encode(testMsg())
	if err != nil {
		f.Fatal(err)
	}
	first = append([]byte(nil), first...)
	ack := simnet.Message{From: "LA", To: "NY", Kind: queue.KindAckBatch,
		Payload: queue.AckFrame{IDs: []string{"NY->LA#1"}}}
	for _, m := range []simnet.Message{ack, testMsg()} {
		frame, err := enc.encode(m)
		if err != nil {
			f.Fatal(err)
		}
		body := append([]byte(nil), frame[frameHeader:]...)
		f.Add(body)                                          // next frame of the stream
		f.Add(append(append([]byte(nil), body...), body...)) // two messages in one frame
		f.Add(body[:len(body)-1])                            // short by one byte
	}
	f.Add([]byte{})
	f.Add(first[frameHeader:])                                          // replayed first frame
	f.Add([]byte{0xF8, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge gob count

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		decodeAfterFirst := func(payload []byte) (simnet.Message, error) {
			dec := newStreamDecoder()
			br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), first...), AppendFrame(nil, payload)...)))
			if _, err := dec.readFrame(br); err != nil {
				t.Fatalf("valid first frame: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			msg, err := dec.readFrame(br)
			runtime.ReadMemStats(&after)
			// The payload buffer plus gob's copy of each message and its
			// decoded values: O(frame). 1 MiB of slack covers gob's
			// fixed-size buffers.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(payload))+1<<20 {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(payload), grew)
			}
			return msg, err
		}
		msg, err := decodeAfterFirst(payload)
		if len(payload) == 0 {
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("empty frame: want ErrFrameCorrupt, got %v", err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("CRC-valid frame failed with %v, want ErrBadPayload", err)
			}
			return
		}
		if _, eerr := EncodeFrame(msg); eerr != nil {
			t.Fatalf("decoded message does not re-encode: %v", eerr)
		}
		// Exact consumption: the accepted payload with a byte missing or
		// a stray gob message appended must be rejected.
		if _, err := decodeAfterFirst(payload[:len(payload)-1]); err == nil {
			t.Fatalf("payload short by one byte still decoded")
		}
		if _, err := decodeAfterFirst(append(append([]byte(nil), payload...), 0x01, 0x00)); err == nil {
			t.Fatalf("payload with a trailing gob message still decoded")
		}
	})
}
