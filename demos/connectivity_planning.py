"""
Planning connectivity against corrupted nodes
=============================================

How many vertex-disjoint paths do classical secure-message-transmission
results demand, and what does a mesh actually provide?  The table covers
one-way links (3t+1), two-way links (2t+1), and the feedback refinement
max(3t+1-2u, 2t+1); the mesh example finds the disjoint paths by
node-split max-flow.
"""

from qkdnet import NetworkGraph, QkdLink, required_paths, vertex_disjoint_paths

print("required disjoint paths against t corrupted nodes")
print(f"{'t':>2} {'one_way':>8} {'two_way':>8} " +
      " ".join(f"fb(u={u})" for u in range(4)))
for t in range(5):
    feedback = [required_paths(t, u=u, mode="feedback_disjoint")
                for u in range(4)]
    print(f"{t:>2} {required_paths(t, mode='one_way'):>8} "
          f"{required_paths(t, mode='two_way'):>8} " +
          " ".join(f"{v:>7}" for v in feedback))

print()
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
