package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dmtp"
	"repro/internal/wire"
)

func TestPilotModesEncode(t *testing.T) {
	seen := map[uint8]string{}
	for _, m := range []dmtp.Mode{dmtp.ModeBare, dmtp.ModeWAN, dmtp.ModeDeliver, dmtp.ModeAlert} {
		if m.ConfigID >= wire.ControlBase || !m.Features.Valid() {
			t.Fatalf("mode %q: config ID %#02x, features %v", m.Name, m.ConfigID, m.Features)
		}
		if dup, ok := seen[m.ConfigID]; ok {
			t.Fatalf("config ID %d used by both %q and %q", m.ConfigID, dup, m.Name)
		}
		seen[m.ConfigID] = m.Name
		h := wire.Header{ConfigID: m.ConfigID, Features: m.Features}
		enc, err := h.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		v := wire.View(enc)
		if _, err := v.Check(); err != nil {
			t.Fatalf("mode %q: %v", m.Name, err)
		}
		if v.IsControl() || v.ConfigID() != m.ConfigID || v.Features() != m.Features {
			t.Fatalf("mode %q decodes as config %d features %v", m.Name, v.ConfigID(), v.Features())
		}
	}
}

func TestXORKeystreamRoundTripQuick(t *testing.T) {
	c := dmtp.NewXORKeystream(0xDEADBEEFCAFEF00D)
	f := func(nonce uint32, payload []byte) bool {
		orig := append([]byte(nil), payload...)
		c.Seal(0, nonce, payload)
		if len(payload) > 8 && bytes.Equal(orig, payload) {
			return false // keystream must actually transform
		}
		c.Open(0, nonce, payload)
		return bytes.Equal(orig, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestXORKeystreamNonceMatters(t *testing.T) {
	c := dmtp.NewXORKeystream(1)
	a := []byte("same plaintext bytes")
	b := append([]byte(nil), a...)
	c.Seal(0, 1, a)
	c.Seal(0, 2, b)
	if bytes.Equal(a, b) {
		t.Fatal("different nonces produced identical ciphertext")
	}
}
