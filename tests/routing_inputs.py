"""Routing inputs for tests that state their cases as votes."""

import numpy as np

from encapnet import tensor as T


def one_hot_routing(votes):
    """(poses, transforms) whose implied votes are exactly votes (B, n1, n2, d2).

    g = n1 channels of p = 1 pose each, of dimension k = B: poses[b, i, 0] is
    the b-th unit vector and transforms[i, k] = votes[k, i], a transpose view
    on the tape, so votes.grad receives the transforms' gradient.
    """
    b, n1 = votes.shape[:2]
    poses = np.tile(np.eye(b)[:, None, None, :], (1, n1, 1, 1))
    return T.constant(poses), T.transpose(votes, (1, 0, 2, 3))


def explicit_agreement(votes, v):
    """cos(u_ij, v_j) and |u_ij| (B, n1, n2) from explicit votes (B, n1, n2, d2)
    and outputs v (B, n2, d2): the reference for vote_agreement."""
    votes = np.asarray(votes, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    dots = (votes * v[:, None]).sum(axis=-1)
    lengths = np.sqrt((votes * votes).sum(axis=-1))
    on = np.sqrt((v * v).sum(axis=-1))[:, None]
    return np.clip(dots / np.maximum(lengths * on, 1e-12), -1.0, 1.0), lengths
