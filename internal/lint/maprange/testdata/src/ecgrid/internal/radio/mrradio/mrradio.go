// Package mrradio exercises maprange inside the radio package path,
// which is in the simulation scope: the channel builds order-sensitive
// candidate lists next to its station map, where iteration order
// leaking into the admitted receiver order would change metric bytes
// run to run.
package mrradio

import "sort"

type station struct{ listening bool }

type channel struct {
	stations map[int]*station
}

func admitOrder(c *channel) []int {
	var ids []int
	for id := range c.stations { // want `range over map c.stations`
		ids = append(ids, id)
	}
	return ids
}

func suppressed(c *channel) []int {
	ids := make([]int, 0, len(c.stations))
	//simlint:ordered candidate keys are sorted before any admission
	for id := range c.stations {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func clean(order []int, c *channel) int {
	n := 0
	for _, id := range order {
		if c.stations[id].listening {
			n++
		}
	}
	return n
}
