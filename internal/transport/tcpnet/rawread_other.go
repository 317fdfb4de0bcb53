//go:build !unix

package tcpnet

import "errors"

// rawReads is false where no raw non-blocking read exists: connections are
// never handed to the pollers and the reader goroutines carry the wire alone.
const rawReads = false

func rawRead(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }
