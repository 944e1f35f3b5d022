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

from .autodiff import Adam, Param, Tape, seeded_rng, zero_grads
from .errors import TiergaeError
from .fgroups import (
    GroupPartition,
    build_partition,
    mark_atoms,
    membership_from_partition,
    partition_molecule,
)
from .gcn import GnnEncoder, encode, encode_numpy, gcn_norm, make_encoder
from .graphs import Graph, MembershipMatrix, coo_to_dense, dense_to_coo, validate
from .pooling import graph_tier_membership
from .pubchem import fetch_pubchem_sdf
from .sdf import Molecule, featurize, parse_sdf, write_sdf
from .tgae import (
    RunConfig,
    TierModel,
    TieredRepresentation,
    decode_adjacency,
    encode_tiered,
    make_tier_models,
    reconstruction_loss,
    train_tier,
    train_tiered,
)
from .tvgae import (
    VariationalTierModel,
    elbo_loss,
    encode_tiered_variational,
    kl_divergence,
    make_variational_tier_models,
    reparameterize,
    train_tier_variational,
    train_tiered_variational,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "GnnEncoder",
    "Graph",
    "GroupPartition",
    "MembershipMatrix",
    "Molecule",
    "Param",
    "RunConfig",
    "Tape",
    "TierModel",
    "TieredRepresentation",
    "TiergaeError",
    "VariationalTierModel",
    "build_partition",
    "coo_to_dense",
    "decode_adjacency",
    "dense_to_coo",
    "elbo_loss",
    "encode",
    "encode_numpy",
    "encode_tiered",
    "encode_tiered_variational",
    "featurize",
    "fetch_pubchem_sdf",
    "gcn_norm",
    "graph_tier_membership",
    "kl_divergence",
    "make_encoder",
    "make_tier_models",
    "make_variational_tier_models",
    "mark_atoms",
    "membership_from_partition",
    "parse_sdf",
    "partition_molecule",
    "reconstruction_loss",
    "reparameterize",
    "seeded_rng",
    "train_tier",
    "train_tier_variational",
    "train_tiered",
    "train_tiered_variational",
    "validate",
    "write_sdf",
    "zero_grads",
]
