"""How the desired agglomerate size drives grid complexity.

Sweeps the top-grid size for the size-based algorithms and prints the
actual average size after the first coarsening next to the resulting grid
complexity (lower grids stay at size 4). Small desired sizes leave many
nodes behind; sizes around 24 already approach the structured-grid ideal
of 4/3 in 2D.
"""
from agglomg import (CoarsenConfig, LevelSchedule, LevelTopology,
                     agglomerate_stats, build_hierarchy, generate_mesh,
                     grid_complexity, mesh_metrics)

mesh = generate_mesh(2, 96, jitter=0.2, seed=5)
topo = LevelTopology.from_mesh(mesh)
pre = mesh_metrics(topo)
print(f"mesh: {mesh.n_elements} triangles, {mesh.n_nodes} nodes "
      f"(node/element {pre.node_element_ratio:.2f}, "
      f"connectivity {pre.average_connectivity:.2f})\n")

print(f"{'algorithm':<10} {'desired':>8} {'actual':>8} {'grid cx':>8} "
      f"{'ratio@1':>8} {'conn@1':>7}")
for alg in ("greedy", "sizebased", "aspect"):
    for s in (4, 8, 24, 100):
        h = build_hierarchy(mesh, CoarsenConfig(alg, desired_size=s, seed=1),
                            schedule=LevelSchedule(top=s, lower=4))
        stats = agglomerate_stats(topo, h.levels[0].agglomeration)
        post = mesh_metrics(h.levels[0].topology)
        print(f"{alg:<10} {s:>8} {stats.average_size:>8.2f} "
              f"{grid_complexity(h):>8.3f} {post.node_element_ratio:>8.2f} "
              f"{post.average_connectivity:>7.2f}")
    print()

print("after one coarsening the node/element ratio exceeds 1 and the")
print("connectivity drops toward structured-grid values, whatever the size")
