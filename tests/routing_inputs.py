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
