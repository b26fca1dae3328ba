// Dynamic churn: the paper's §4.3 environment — peers join and leave
// while issuing Poisson queries, and ACE re-optimizes twice a minute.
// A discrete-event clock drives the churn, the query arrivals and the
// ACE rounds; each query floods the overlay as it stands at its arrival
// instant (sys.Query), so a peer leaving while a flood is in flight does
// not cut it short.
//
//	go run ./examples/dynamicchurn
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"ace"
	"ace/internal/churn"
	"ace/internal/gnutella"
	"ace/internal/metrics"
	"ace/internal/overlay"
	"ace/internal/sim"
)

func main() {
	sys, err := ace.NewSystem(ace.WithSeed(3), ace.WithSize(1200, 360), ace.WithAvgDegree(8))
	if err != nil {
		log.Fatal(err)
	}
	net := sys.Network()
	opt := sys.Optimizer()

	// Free a third of the slots so churn has a replacement pool.
	kill := net.AlivePeers()
	for i := 0; i < len(kill)/4; i++ {
		net.Leave(kill[i*4])
	}

	eng := sim.NewEngine()
	rng := sim.NewRNG(99)

	model := churn.DefaultModel(8)
	model.MeanLifetime = 5 * time.Minute // brisk churn for a short demo
	model.StdDevLifetime = 150 * time.Second
	driver, err := churn.NewDriver(eng, net, model, rng.Derive("churn"))
	if err != nil {
		log.Fatal(err)
	}

	var traffic, response metrics.Agg
	var queries, failed int
	qrng := rng.Derive("workload")
	driver.OnQuery = func(src overlay.PeerID) {
		// Each object lives on three random replicas, as file-sharing
		// replication typically provides.
		alive := net.AlivePeers()
		responders := map[overlay.PeerID]bool{}
		for len(responders) < 3 {
			responders[alive[qrng.Intn(len(alive))]] = true
		}
		r := sys.Query(src, 2*gnutella.DefaultTTL, responders)
		queries++
		traffic.Add(r.TrafficCost)
		if math.IsInf(r.FirstResponse, 1) {
			failed++
		} else {
			response.Add(r.FirstResponse)
		}
	}

	// ACE runs twice a minute.
	optRNG := rng.Derive("opt")
	var aceTick func()
	aceTick = func() {
		opt.Round(optRNG)
		eng.After(30*time.Second, aceTick)
	}
	eng.After(30*time.Second, aceTick)

	driver.Start()
	const horizon = 25 * time.Minute
	for t := 5 * time.Minute; t <= horizon; t += 5 * time.Minute {
		eng.RunUntil(t)
		joins, leaves, _ := driver.Counts()
		fmt.Printf("t=%-4s peers=%d degree=%.1f joins=%d leaves=%d queries=%d  traffic/query=%.0f  response=%.1f ms  failed=%d\n",
			t, net.NumAlive(), net.AverageDegree(), joins, leaves, queries, traffic.Mean(), response.Mean(), failed)
	}
	fmt.Printf("\noptimization overhead so far: %.0f traffic-cost units over %v\n",
		opt.TotalOverhead(), horizon)
}
