package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"asynctp/internal/queue"
	"asynctp/internal/simnet"
)

// testMsg is a realistic wire message: a batched queue transfer with
// piggybacked acks, the dominant frame on a busy link.
func testMsg() simnet.Message {
	return simnet.Message{
		From: "NY", To: "LA", Kind: queue.KindEnqueueBatch,
		Payload: queue.BatchFrame{
			Msgs: []queue.Msg{
				{ID: "NY->LA#1", Seq: 1, From: "NY", Queue: "pieces", Payload: "piece-1"},
				{ID: "NY->LA#2", Seq: 2, From: "NY", Queue: "pieces", Payload: "piece-2"},
			},
			Acks: []string{"LA->NY#7", "LA->NY#8"},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	want := testMsg()
	frame, err := EncodeFrame(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, consumed, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if consumed != len(frame) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(frame))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
	// Trailing bytes after a complete frame must not disturb it.
	got2, consumed2, err := DecodeFrame(append(append([]byte(nil), frame...), 0xFF, 0xFF))
	if err != nil || consumed2 != len(frame) || !reflect.DeepEqual(got2, want) {
		t.Fatalf("decode with trailing bytes: err=%v consumed=%d", err, consumed2)
	}
}

func TestDecodeTornFrame(t *testing.T) {
	frame, err := EncodeFrame(testMsg())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		_, consumed, err := DecodeFrame(frame[:cut])
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
		if consumed != 0 {
			t.Fatalf("cut at %d: torn frame consumed %d bytes", cut, consumed)
		}
	}
}

func TestDecodeBadCRC(t *testing.T) {
	frame, err := EncodeFrame(testMsg())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Flip one payload bit; the CRC must catch it.
	frame[len(frame)-1] ^= 0x01
	if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("payload bit flip: want ErrFrameCorrupt, got %v", err)
	}
	// Flip a CRC bit with an intact payload: same verdict.
	frame[len(frame)-1] ^= 0x01
	frame[5] ^= 0x80
	if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("crc bit flip: want ErrFrameCorrupt, got %v", err)
	}
}

func TestDecodeOversizedLength(t *testing.T) {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxFrame+1)
	if _, _, err := DecodeFrame(hdr[:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length: want ErrFrameTooLarge, got %v", err)
	}
	// A 4 GiB length claim must error identically — and (asserted by the
	// fuzzer's alloc bound) without attempting the allocation.
	binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFFF)
	if _, _, err := DecodeFrame(hdr[:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("4GiB length: want ErrFrameTooLarge, got %v", err)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	if _, _, err := DecodeFrame(hdr[:]); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("zero length: want ErrFrameCorrupt, got %v", err)
	}
}

func TestDecodeBadPayload(t *testing.T) {
	// Valid framing around bytes that are not a gob-encoded Message.
	frame := AppendFrame(nil, []byte("not a gob stream"))
	if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("garbage payload: want ErrBadPayload, got %v", err)
	}
}

func TestReadFrameStream(t *testing.T) {
	msgs := []simnet.Message{
		testMsg(),
		{From: "LA", To: "NY", Kind: queue.KindAckBatch,
			Payload: queue.AckFrame{IDs: []string{"NY->LA#1"}}},
		testMsg(),
	}
	enc := newStreamEncoder()
	var wire []byte
	for _, m := range msgs {
		frame, err := enc.encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		wire = append(wire, frame...)
	}
	dec := newStreamDecoder()
	br := bufio.NewReader(bytes.NewReader(wire))
	for i, want := range msgs {
		got, err := dec.readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch:\n got  %+v\n want %+v", i, got, want)
		}
	}
	if _, err := dec.readFrame(br); err != io.EOF {
		t.Fatalf("clean end of stream: want io.EOF, got %v", err)
	}
	// A stream dying mid-frame is a torn tail, not a clean EOF.
	dec = newStreamDecoder()
	br = bufio.NewReader(bytes.NewReader(wire[:len(wire)-3]))
	for i := 0; i < len(msgs)-1; i++ {
		if _, err := dec.readFrame(br); err != nil {
			t.Fatalf("frame %d of torn stream: %v", i, err)
		}
	}
	if _, err := dec.readFrame(br); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn tail: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestStreamSendsTypesOnce pins the point of the per-connection stream:
// a repeated message shape costs its type descriptors only in the first
// frame, and a later frame is meaningless without the stream before it.
func TestStreamSendsTypesOnce(t *testing.T) {
	enc := newStreamEncoder()
	first, err := enc.encode(testMsg())
	if err != nil {
		t.Fatal(err)
	}
	first = append([]byte(nil), first...)
	second, err := enc.encode(testMsg())
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(second) > len(first) {
		t.Fatalf("repeat frame is %d bytes against %d for the first: descriptors re-sent", len(second), len(first))
	}
	// Out of its stream the repeat frame does not decode: a decoder that
	// never saw the first frame must reject it, not guess.
	if _, _, err := DecodeFrame(second); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("repeat frame on a fresh stream: want ErrBadPayload, got %v", err)
	}
	// Replaying the first frame redefines the stream's types: corrupt.
	dec := newStreamDecoder()
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), first...), first...)))
	if _, err := dec.readFrame(br); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.readFrame(br); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("replayed first frame: want ErrBadPayload, got %v", err)
	}
}

// TestStreamRejectsInexactPayload: a frame must hold exactly one
// message. Two messages in one frame, or one message plus stray bytes,
// is corruption even though every byte passed the CRC.
func TestStreamRejectsInexactPayload(t *testing.T) {
	enc := newStreamEncoder()
	first, err := enc.encode(testMsg())
	if err != nil {
		t.Fatal(err)
	}
	first = append([]byte(nil), first...)
	next, err := enc.encode(testMsg())
	if err != nil {
		t.Fatal(err)
	}
	body := next[frameHeader:]
	for name, payload := range map[string][]byte{
		"two messages":   append(append([]byte(nil), body...), body...),
		"trailing bytes": append(append([]byte(nil), body...), 0x01, 0x00),
		"truncated":      body[:len(body)-1],
	} {
		dec := newStreamDecoder()
		wire := append(append([]byte(nil), first...), AppendFrame(nil, payload)...)
		br := bufio.NewReader(bytes.NewReader(wire))
		if _, err := dec.readFrame(br); err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		if _, err := dec.readFrame(br); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s: want ErrBadPayload, got %v", name, err)
		}
	}
}

// TestAppendFrameAllocs pins the framing hot path at zero allocations
// when the destination buffer has capacity — the per-peer writer reuses
// one buffer across a coalescing window, so header+copy must not
// allocate per frame.
func TestAppendFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 512)
	dst := make([]byte, 0, 8*(frameHeader+len(payload)))
	allocs := testing.AllocsPerRun(1000, func() {
		dst = AppendFrame(dst[:0], payload)
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame allocates %v times per frame; want 0", allocs)
	}
}
