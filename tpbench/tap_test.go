package main

import (
	"testing"
	"time"

	"asynctp/internal/queue"
	"asynctp/internal/simnet"
)

// TestNetTapCountsScriptedFrames feeds the wire tap a scripted frame
// sequence over the in-process network and checks every count exactly:
// messages, distinct IDs, resends (a repeated Msg.ID), ack-only frames
// (standalone or a batch of piggybacked acks only), and first arrivals.
func TestNetTapCountsScriptedFrames(t *testing.T) {
	tap := newNetTap(simnet.New(), newSpanLog(100), 1)
	inbox := map[simnet.SiteID]<-chan simnet.Message{}
	for _, id := range []simnet.SiteID{"A", "B"} {
		ch, err := tap.AddSite(id)
		if err != nil {
			t.Fatal(err)
		}
		inbox[id] = ch
	}
	m1 := queue.Msg{ID: "A>B-1", Seq: 1, From: "A", Queue: "pieces"}
	m2 := queue.Msg{ID: "A>B-2", Seq: 2, From: "A", Queue: "pieces"}
	m3 := queue.Msg{ID: "A>B-3", Seq: 3, From: "A", Queue: "pieces"}
	script := []simnet.Message{
		{From: "A", To: "B", Kind: queue.KindEnqueueBatch, Payload: queue.BatchFrame{Msgs: []queue.Msg{m1, m2}}},
		{From: "B", To: "A", Kind: queue.KindAckBatch, Payload: queue.AckFrame{IDs: []string{m1.ID}}},
		// m1 again: a resend, carrying a piggybacked ack.
		{From: "A", To: "B", Kind: queue.KindEnqueueBatch, Payload: queue.BatchFrame{Msgs: []queue.Msg{m1}, Acks: []string{"B>A-1"}}},
		{From: "A", To: "B", Kind: queue.KindEnqueueBatch, Payload: queue.BatchFrame{Msgs: []queue.Msg{m3}}},
		// A batch frame with only piggybacked acks is ack-only too.
		{From: "B", To: "A", Kind: queue.KindEnqueueBatch, Payload: queue.BatchFrame{Acks: []string{m2.ID}}},
	}
	for _, msg := range script {
		if err := tap.Send(msg); err != nil {
			t.Fatalf("send %s: %v", msg.Kind, err)
		}
	}
	// Drain: three frames reach B, two reach A.
	for id, want := range map[simnet.SiteID]int{"B": 3, "A": 2} {
		for i := 0; i < want; i++ {
			select {
			case <-inbox[id]:
			case <-time.After(5 * time.Second):
				t.Fatalf("site %s: frame %d of %d never arrived", id, i+1, want)
			}
		}
	}
	tap.Close()

	got := tap.counts()
	want := wireCounts{
		Frames: 5, EnqFrames: 3, AckFrames: 2,
		Msgs: 4, Distinct: 3, Resends: 1,
		Arrivals: 5, FirstArrive: 3,
	}
	got.SendNS = 0
	if got != want {
		t.Fatalf("counts:\n got  %+v\n want %+v", got, want)
	}
	if hops := tap.hops(); len(hops) != 3 {
		t.Fatalf("hops: got %d, want one per distinct message (3)", len(hops))
	}
	if n := len(tap.samples()); n != 5 {
		t.Fatalf("codec samples: got %d, want every frame (5)", n)
	}
}
