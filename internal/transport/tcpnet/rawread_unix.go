//go:build unix

package tcpnet

import (
	"io"
	"syscall"
)

// rawReads reports that rawRead works here, so the progress engine may read
// a connection's descriptor itself.
const rawReads = true

// rawRead makes one read on a non-blocking socket descriptor, outside Go's
// netpoller and outside its descriptor reference counting: the caller must
// know the descriptor is open (see link.close). It returns errWouldBlock when
// the socket has nothing, io.EOF when the peer closed.
func rawRead(fd uintptr, p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errWouldBlock
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}
