"""Category Hit Ratio — the paper's proposed metric (Definition 5).

``CHR@N(I_c, U) = 1/(N·|U|) · Σ_u Σ_{i ∈ I_c \\ I_u^+} hit(i, u)``

where ``hit(i, u)`` is 1 iff item ``i`` appears in user ``u``'s top-N
list.  It measures which fraction of all top-N slots is occupied by
items of category ``c``; summed over all categories it is ≤ 1 (strictly
1 when every recommended item belongs to some category).

The paper's Table II prints CHR as a percentage (e.g. ``Sock(2.122)``
means 2.122% of top-100 slots); :func:`chr_percent` provides that view.

Per Definition 5, category membership is decided by the *classifier*
(``I_c = {i | F(x_i) = c}``), not the catalog ground truth — after an
attack the two diverge, and the metric keeps tracking the original
(attacked) item set.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


def _members(top_n_lists: np.ndarray, category_items) -> np.ndarray:
    """Which recommended ids lie in ``category_items``: one boolean item mask.

    Equal to ``np.isin(top_n_lists, category_items)`` for integer ids;
    the mask spans the ids present, offset when any is negative.
    """
    category_items = np.asarray(category_items).reshape(-1)
    if top_n_lists.size == 0 or category_items.size == 0:
        return np.zeros(top_n_lists.shape, dtype=bool)
    low = min(int(top_n_lists.min()), int(category_items.min()), 0)
    high = max(int(top_n_lists.max()), int(category_items.max()))
    mask = np.zeros(high - low + 1, dtype=bool)
    mask[category_items - low] = True
    return mask[top_n_lists - low] if low else mask[top_n_lists]


def category_hit_ratio(
    top_n_lists: np.ndarray,
    category_items: np.ndarray,
    num_users: Optional[int] = None,
) -> float:
    """CHR@N for one item set, given precomputed top-N lists.

    Parameters
    ----------
    top_n_lists:
        Array ``(|U|, N)`` of recommended item ids per user, train
        positives already excluded (see :meth:`Recommender.top_n`).
    category_items:
        Item ids forming ``I_c`` (e.g. all items the classifier labels
        as *sock*).
    num_users:
        Defaults to the number of rows in ``top_n_lists``.
    """
    top_n_lists = np.asarray(top_n_lists)
    if top_n_lists.ndim != 2:
        raise ValueError("top_n_lists must be (num_users, N)")
    users, cutoff = top_n_lists.shape
    if cutoff == 0:
        raise ValueError("top-N lists are empty")
    num_users = users if num_users is None else num_users
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    member = _members(top_n_lists, category_items)
    return float(member.sum() / (cutoff * num_users))


def chr_percent(*args, **kwargs) -> float:
    """CHR@N scaled ×100, the unit used in the paper's Table II."""
    return 100.0 * category_hit_ratio(*args, **kwargs)


def chr_by_category(
    top_n_lists: np.ndarray,
    item_classes: np.ndarray,
    num_classes: int,
) -> np.ndarray:
    """CHR@N of every class at once; returns an array indexed by class id.

    ``item_classes`` assigns each item a class (classifier predictions).
    The values sum to ≤ 1 (exactly 1 when every item is classified).
    """
    item_classes = np.asarray(item_classes, dtype=np.int64)
    if item_classes.ndim != 1:
        raise ValueError("item_classes must be 1-D")
    top_n_lists = np.asarray(top_n_lists)
    if top_n_lists.ndim != 2:
        raise ValueError("top_n_lists must be (num_users, N)")
    if top_n_lists.size:
        # Negative ids would reach np.bincount (via the item_classes fancy
        # index wrapping around) and silently miscount; reject them with a
        # clear message alongside the upper-bound check.
        if top_n_lists.min() < 0:
            raise ValueError(
                f"top-N lists contain negative item ids (min {top_n_lists.min()})"
            )
        if top_n_lists.max() >= item_classes.shape[0]:
            raise ValueError(
                f"top-N lists reference unknown items (max id {top_n_lists.max()} "
                f">= num_items {item_classes.shape[0]})"
            )
    users, cutoff = top_n_lists.shape
    recommended_classes = item_classes[top_n_lists.reshape(-1)]
    counts = np.bincount(recommended_classes, minlength=num_classes)
    return counts / (cutoff * users)


def weighted_category_hit_ratio(
    top_n_lists: np.ndarray,
    category_items: np.ndarray,
    num_users: Optional[int] = None,
) -> float:
    """Position-weighted CHR: hits discounted by log2(rank + 1) (DCG-style).

    An extension beyond the paper's Definition 5: CHR counts a hit at
    position 1 and position 100 equally, although the former drives far
    more purchases.  This variant weights each hit by ``1/log2(pos+1)``
    and normalises by the maximum attainable weight, so it stays in
    [0, 1] and coincides with CHR when the category fills every slot.
    """
    top_n_lists = np.asarray(top_n_lists)
    if top_n_lists.ndim != 2:
        raise ValueError("top_n_lists must be (num_users, N)")
    users, cutoff = top_n_lists.shape
    if cutoff == 0:
        raise ValueError("top-N lists are empty")
    num_users = users if num_users is None else num_users
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    member = _members(top_n_lists, category_items)
    discounts = 1.0 / np.log2(np.arange(2, cutoff + 2))
    ideal = discounts.sum() * num_users
    return float((member * discounts[None, :]).sum() / ideal)


def chr_report(
    top_n_lists: np.ndarray,
    item_classes: np.ndarray,
    class_names: Sequence[str],
) -> Dict[str, float]:
    """Human-readable CHR percentages per class name."""
    values = chr_by_category(top_n_lists, item_classes, num_classes=len(class_names))
    return {name: 100.0 * float(values[idx]) for idx, name in enumerate(class_names)}
