# Projecting voxels into a camera and walking the ray behind a pixel.
#
# A voxel grid sits in front of a pinhole camera. Every voxel center
# projects (or not) to a feature-map pixel; going the other way, one pixel
# owns the depth-ordered list of all voxels that project into it.
import numpy as np

from rayfuse import GridSpec, ProjectionTransform, make_camera_matrix
from rayfuse.rays import brute_force_ray_oracle, construct_ray, index_frame

grid = GridSpec(origin=(4.0, -4.0, -4.0), voxel_size=(0.5, 0.5, 0.5), dims=(16, 16, 16))
camera = make_camera_matrix(fx=60.0, fy=60.0, cx=32.0, cy=32.0, translation=(0.1, -0.05, 0.2))
vt = ProjectionTransform(camera, grid, stride=4, image_dims=(64, 64))

print("feature map:", vt.feature_dims, "(stride 4 over a 64x64 image)")

# forward direction: a few voxel centers and where they land
for idx in [(0, 8, 8), (8, 8, 8), (15, 0, 0)]:
    print(f"voxel {idx} -> pixel {vt.project(idx)}")

# backward direction: all voxels behind one pixel, nearest first
pixel = (8, 8)
ray = construct_ray(vt, grid, pixel)
print(f"\npixel {pixel} sees {len(ray)} voxels, depths "
      f"{ray.depths[0]:.2f}m .. {ray.depths[-1]:.2f}m")
print("first five:", ray.voxels[:5])

# every listed voxel projects straight back to the pixel
assert all(vt.project(v) == pixel for v in ray.voxels)

# and the fast construction agrees exactly with a full-grid scan
oracle = brute_force_ray_oracle(vt, grid, pixel)
assert ray.voxels == oracle.voxels and np.array_equal(ray.depths, oracle.depths)
print("\nray construction matches the brute-force oracle, order included")

# many rays of one frame: project the grid once, then each ray is a slice
index = index_frame(vt, grid)
lengths = [len(construct_ray(vt, grid, (u, 8), index)) for u in range(16)]
print("ray lengths across a scanline:", lengths)
