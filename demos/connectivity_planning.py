"""
Disjoint paths on a mesh
========================

A session XORs its shares over ell vertex-disjoint paths, so the mesh
must provide them.  The example finds two such paths across a 3x3 grid,
corner to corner, by unit-capacity max-flow on the node-split graph.
"""

from qkdnet import NetworkGraph, QkdLink, vertex_disjoint_paths

print("disjoint paths on a 3x3 grid mesh, corner to corner:")
names = [f"v{r}{c}" for r in range(3) for c in range(3)]
links = []
for r in range(3):
    for c in range(3):
        if c < 2:
            links.append(QkdLink(f"v{r}{c}", f"v{r}{c + 1}"))
        if r < 2:
            links.append(QkdLink(f"v{r}{c}", f"v{r + 1}{c}"))
grid = NetworkGraph(names, links)
paths = vertex_disjoint_paths(grid, "v00", "v22", 2)
for i, path in enumerate(paths.paths):
    print(f"  path {i}: {' -> '.join(path)}")
