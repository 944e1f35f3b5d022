"""Tiered graph autoencoders for molecular graphs.

Three representation tiers (atoms, functional groups, whole molecule) with a
deterministic and a variational autoencoder per tier, chemistry-driven
pooling between tiers, native SDF ingestion and a small CLI.
"""

import os

# BLAS reads its thread count when numpy loads, so it is pinned here, before
# any import of numpy. Threaded kernels split a product by thread, and
# OpenBLAS's threaded syrk (the decoder's Z Z^T) gives other bits than its
# one-thread kernel at most N past about 165. With one thread, train and embed
# write the same bytes whatever thread count the environment asks for.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
