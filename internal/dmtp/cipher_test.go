package dmtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire"
)

// sealRig is a relay rig in mode m with cipher c that keeps a copy of
// every packet it emits.
func sealRig(t *testing.T, m Mode, c Cipher) (*relayRig, *[]wire.View) {
	var out []wire.View
	r := newRelayRig(t, func(cfg *RelayConfig[testDst]) {
		cfg.Mode = m
		cfg.Cipher = c
		cfg.Emit = func(f *Flow[testDst], pkt []byte) {
			out = append(out, wire.View(pkt).Clone())
			f.Sent(1)
		}
	})
	return r, &out
}

// deliverAll ingests pkts into a fresh receiver engine with cipher c and
// returns the delivered payloads.
func deliverAll(pkts []wire.View, c Cipher) [][]byte {
	var got [][]byte
	eng := NewReceiverEngine(NewFakeClock(rigStart), nopDatapath{}, ReceiverConfig{
		NAKDelay: time.Millisecond, NAKRetry: 5 * time.Millisecond,
		Cipher:  c,
		Deliver: func(m Message) { got = append(got, m.Payload) },
	})
	for _, p := range pkts {
		eng.Ingest(p)
	}
	return got
}

// TestRelayCipherSealsAndReceiverOpens: a relay whose mode encrypts seals
// each upgraded payload under epoch 0 with the sequence number as nonce; a
// receiver with the same cipher delivers the plaintext, one without it the
// ciphertext as it arrived.
func TestRelayCipherSealsAndReceiverOpens(t *testing.T) {
	c := NewXORKeystream(0x5CA1AB1E0DDBA11)
	m := Mode{ConfigID: 1, Features: wire.FeatSequenced | wire.FeatReliable | wire.FeatTimestamped | wire.FeatEncrypted}
	r, out := sealRig(t, m, c)
	for i := 0; i < 3; i++ {
		r.ingest(rigSrcA, expA)
	}
	if len(*out) != 3 {
		t.Fatalf("emitted %d packets, want 3", len(*out))
	}
	for i, v := range *out {
		seq, _ := v.Seq()
		ext, err := v.Cipher()
		if err != nil || ext != (wire.CipherExt{Nonce: uint32(seq)}) || seq != uint64(i+1) {
			t.Fatalf("packet %d: seq %d, cipher %+v (%v), want nonce = seq, epoch 0", i, seq, ext, err)
		}
		if bytes.Equal(v.Payload(), []byte("payload")) {
			t.Fatalf("packet %d left the relay unsealed", i)
		}
	}
	for i, p := range deliverAll(*out, c) {
		if string(p) != "payload" {
			t.Fatalf("receiver with the cipher delivered %q for seq %d", p, i+1)
		}
	}
	for i, p := range deliverAll(*out, nil) {
		if !bytes.Equal(p, (*out)[i].Payload()) {
			t.Fatalf("receiver without a cipher delivered %q, want the ciphertext %q", p, (*out)[i].Payload())
		}
	}
}

// TestRelayCipherNeedsEncryptedMode: a cipher on a relay whose mode does
// not encrypt seals nothing, and a receiver's cipher leaves such a payload
// aliasing its packet.
func TestRelayCipherNeedsEncryptedMode(t *testing.T) {
	c := NewXORKeystream(1)
	r, out := sealRig(t, ModeWAN, c)
	r.ingest(rigSrcA, expA)
	v := (*out)[0]
	if _, err := v.Cipher(); err == nil || string(v.Payload()) != "payload" {
		t.Fatalf("mode %q was sealed: payload %q", ModeWAN.Name, v.Payload())
	}
	got := deliverAll(*out, c)
	if len(got) != 1 || &got[0][0] != &v.Payload()[0] {
		t.Fatal("an unencrypted payload was copied, want it to alias the packet")
	}
}
