// Package backends links the concrete transport backends to the runtime
// without the runtime naming them: core depends on this neutral glue for
// its default, so internal/core (and everything above it) never imports a
// concrete backend package — the same layering trick as database/sql
// drivers.
package backends

import (
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// Sim returns a fresh simulated in-process cluster — the default backend
// when a World is created without an explicit Network.
func Sim() transport.Network { return fabric.NewNetwork() }

// Faulty returns a fresh simulated in-process cluster whose wire is the
// adversary fc describes: it advertises !Lossless even when every
// probability in fc is zero, so the runtime runs its reliability layer over
// it. A Network serves one world.
func Faulty(fc transport.FaultConfig) transport.Network { return fabric.NewFaultyNetwork(fc) }

// TCP returns a real TCP backend serving one rank of a multi-process job.
// listen is this rank's accept address; peers[r] is rank r's address.
func TCP(rank, size int, listen string, peers []string) (transport.Network, error) {
	return tcpnet.New(tcpnet.Config{Rank: rank, Size: size, Listen: listen, Peers: peers})
}

// ParsePeers splits a comma-separated rank address list, trimming
// whitespace and rejecting empty or duplicate entries, so every launcher
// front-end validates -peers the same way.
func ParsePeers(list string) ([]string, error) { return tcpnet.ParsePeers(list) }
