package dmtp

import "encoding/binary"

// Cipher encrypts and decrypts DAQ payloads (Req 5). The paper keeps
// cryptography outside the protocol — "we retain the current practice of
// encrypting the payload using existing third-party software or hardware" —
// so the transport only carries a key epoch and per-packet nonce in the
// FeatEncrypted extension and delegates the transform to this interface.
// Headers are never encrypted: they must stay processable in-network.
type Cipher interface {
	// Seal encrypts payload in place using the epoch's key and the nonce.
	Seal(keyEpoch uint32, nonce uint32, payload []byte)
	// Open decrypts payload in place. Open(Seal(x)) == x.
	Open(keyEpoch uint32, nonce uint32, payload []byte)
}

// XORKeystream is the stand-in cipher for this reproduction: a keyed
// xorshift keystream applied to the payload. It is NOT cryptographically
// secure — it exists so the encrypted-mode code path (nonce management,
// in-network header processability, overhead accounting) is exercised
// end to end; a deployment would plug in AES-GCM hardware here.
type XORKeystream struct {
	// Keys maps key epoch → 64-bit key.
	Keys map[uint32]uint64
}

// NewXORKeystream returns a cipher with a single epoch-0 key.
func NewXORKeystream(key uint64) *XORKeystream {
	return &XORKeystream{Keys: map[uint32]uint64{0: key}}
}

func (c *XORKeystream) stream(keyEpoch, nonce uint32, payload []byte) {
	state := c.Keys[keyEpoch] ^ (uint64(nonce)<<32 | uint64(nonce) | 0x9E3779B97F4A7C15)
	var block [8]byte
	for i := 0; i < len(payload); i += 8 {
		// xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		binary.LittleEndian.PutUint64(block[:], state)
		for j := 0; j < 8 && i+j < len(payload); j++ {
			payload[i+j] ^= block[j]
		}
	}
}

// Seal implements Cipher.
func (c *XORKeystream) Seal(keyEpoch, nonce uint32, payload []byte) {
	c.stream(keyEpoch, nonce, payload)
}

// Open implements Cipher.
func (c *XORKeystream) Open(keyEpoch, nonce uint32, payload []byte) {
	c.stream(keyEpoch, nonce, payload)
}
