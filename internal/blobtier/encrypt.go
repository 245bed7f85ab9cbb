package blobtier

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"blendhouse/internal/storage"
)

// ErrDecrypt tags blobs that fail authenticated decryption — a wrong
// key or a corrupted/substituted ciphertext.
var ErrDecrypt = errors.New("blobtier: decryption failed (wrong key or corrupt blob)")

const (
	nonceSize = 12
	gcmTag    = 16
	// encOverhead is the fixed per-blob ciphertext expansion:
	// nonce ‖ ciphertext ‖ GCM tag.
	encOverhead = nonceSize + gcmTag
)

// EncryptingStore wraps a BlobStore with AES-GCM at-rest encryption.
// Every Put seals the value with a fresh random nonce (prepended to
// the ciphertext) and binds the blob key as additional authenticated
// data, so a ciphertext moved to a different key fails to open.
// Composable anywhere in the stack: under the engine (-encrypt-key),
// or around a backup destination (BACKUP ... WITH KEY).
//
// Caveats: GetRange decrypts the whole blob before slicing (GCM is
// not seekable), and Size subtracts the fixed overhead — both are
// documented costs of the wrapper, not bugs in callers.
type EncryptingStore struct {
	backing storage.BlobStore
	aead    cipher.AEAD
}

// NewEncrypting wraps backing with AES-GCM under key (16, 24 or 32
// bytes for AES-128/192/256).
func NewEncrypting(backing storage.BlobStore, key []byte) (*EncryptingStore, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("blobtier: encryption key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &EncryptingStore{backing: backing, aead: aead}, nil
}

// KeyFromString turns a flag/env secret into an AES key: a hex string
// decoding to a valid AES length is used verbatim; anything else is
// treated as a passphrase and stretched with SHA-256 to AES-256.
func KeyFromString(secret string) []byte {
	if raw, err := hex.DecodeString(secret); err == nil {
		switch len(raw) {
		case 16, 24, 32:
			return raw
		}
	}
	sum := sha256.Sum256([]byte(secret))
	return sum[:]
}

func (s *EncryptingStore) seal(key string, data []byte) ([]byte, error) {
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return s.aead.Seal(nonce, nonce, data, []byte(key)), nil
}

func (s *EncryptingStore) open(key string, blob []byte) ([]byte, error) {
	if len(blob) < encOverhead {
		return nil, fmt.Errorf("%w: blob %q too short (%d bytes)", ErrDecrypt, key, len(blob))
	}
	pt, err := s.aead.Open(nil, blob[:nonceSize], blob[nonceSize:], []byte(key))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrDecrypt, key)
	}
	return pt, nil
}

// Put implements BlobStore.
func (s *EncryptingStore) Put(key string, data []byte) error {
	ct, err := s.seal(key, data)
	if err != nil {
		return err
	}
	return s.backing.Put(key, ct)
}

// Get implements BlobStore.
func (s *EncryptingStore) Get(key string) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx implements storage.CtxReader.
func (s *EncryptingStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	blob, err := storage.GetCtx(ctx, s.backing, key)
	if err != nil {
		return nil, err
	}
	return s.open(key, blob)
}

// GetRange implements BlobStore by decrypting the whole blob and
// slicing with the standard clamp semantics.
func (s *EncryptingStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.GetRangeCtx(nil, key, off, length)
}

// GetRangeCtx implements storage.CtxReader. The range is cut from the
// plaintext GetCtx just allocated, not copied out of it.
func (s *EncryptingStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("%w: off=%d len=%d", storage.ErrInvalidRange, off, length)
	}
	pt, err := s.GetCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	return sliceRange(pt, off, length), nil
}

// Size implements BlobStore, reporting the plaintext length.
func (s *EncryptingStore) Size(key string) (int64, error) {
	n, err := s.backing.Size(key)
	if err != nil {
		return 0, err
	}
	if n < encOverhead {
		return 0, fmt.Errorf("%w: blob %q too short (%d bytes)", ErrDecrypt, key, n)
	}
	return n - encOverhead, nil
}

// Delete implements BlobStore.
func (s *EncryptingStore) Delete(key string) error { return s.backing.Delete(key) }

// List implements BlobStore (key names are not encrypted).
func (s *EncryptingStore) List(prefix string) ([]string, error) { return s.backing.List(prefix) }
