package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteEdgeList emits the graph in the plain text format shared by most
// graph tools: a header line "# nodes <n>", then one "u v" pair per
// edge (u < v), sorted for deterministic output. Isolated nodes are
// preserved through the header count plus explicit "node v" lines for
// IDs outside the contiguous range.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	ids := g.Nodes()
	sort.Ints(ids)
	for _, v := range ids {
		if _, err := fmt.Fprintf(bw, "node %d\n", v); err != nil {
			return err
		}
	}
	type edge struct{ u, v int }
	edges := make([]edge, 0, g.NumEdges())
	for _, u := range ids {
		for _, a := range g.adj[u] {
			if v := int(a.to); u < v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.u, e.v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxEdgeListID is the largest node ID ReadEdgeList accepts. Graph
// storage is indexed by ID, so one line naming a huge ID would otherwise
// allocate memory proportional to it.
const MaxEdgeListID = 1<<20 - 1

// ReadEdgeList parses the WriteEdgeList format (comment lines starting
// with '#' are skipped; "node v" declares an isolated or any node;
// "u v" declares an edge, creating endpoints as needed). Node IDs must
// lie in [0, MaxEdgeListID].
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	line := 0
	parseID := func(field string) (int, error) {
		id, err := strconv.Atoi(field)
		if err != nil {
			return 0, fmt.Errorf("graph: line %d: bad node id %q", line, field)
		}
		if id < 0 || id > MaxEdgeListID {
			return 0, fmt.Errorf("graph: line %d: node id %d outside [0, %d]", line, id, MaxEdgeListID)
		}
		return id, nil
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case len(fields) == 2 && fields[0] == "node":
			id, err := parseID(fields[1])
			if err != nil {
				return nil, err
			}
			g.addNodeID(id)
		case len(fields) == 2:
			u, err := parseID(fields[0])
			if err != nil {
				return nil, err
			}
			v, err := parseID(fields[1])
			if err != nil {
				return nil, err
			}
			if u == v {
				return nil, fmt.Errorf("graph: line %d: self-loop %d", line, u)
			}
			g.addNodeID(u)
			g.addNodeID(v)
			g.AddEdge(u, v)
		default:
			return nil, fmt.Errorf("graph: line %d: unparseable %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
