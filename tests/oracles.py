"""Test-only oracles: scoring rules rewritten from the paper, sharing no code
with ``slotscore.scoring``.

``reference_score`` tallies one note pair from the three match rules of the
shared task's scorer (arXiv 2301.05571):

- a predicted event aligns with a gold event when the two have the same
  event type and triggers that share at least one character;
- a span-only argument of an aligned pair matches on its exact span;
- a labeled argument of an aligned pair matches on its subtype, whatever
  its span.

It works with list scans and removals: no slot multiset, no key objects, no
per-type buckets. It is slow on purpose and meant for small notes.
"""

from __future__ import annotations

from slotscore.schema import LABELED, AnnotationSchema
from slotscore.standoff import Document, annotation_sort_key

MISSING = "<missing>"


def _trigger_fragments(doc: Document, event) -> tuple | None:
    if event.trigger is None or event.trigger not in doc.text_bounds:
        return None
    return doc.text_bounds[event.trigger].span.fragments


def _document_order(doc: Document) -> list:
    """Events by trigger start, then trigger end, then id (T2 before T10);
    events without a resolvable trigger come last, by id."""

    def key(event):
        frags = _trigger_fragments(doc, event)
        if frags is None:
            return (1, 0, 0, annotation_sort_key(event.id))
        return (0, frags[0][0], frags[-1][1], annotation_sort_key(event.id))

    return sorted(doc.events.values(), key=key)


def _share_a_character(a: tuple, b: tuple) -> bool:
    return any(s1 < e2 and s2 < e1 for s1, e1 in a for s2, e2 in b)


def reference_align(gold: Document, pred: Document) -> tuple[list, list, list]:
    """Greedy alignment: each gold event, in document order, takes the first
    still-free predicted event (document order) of its type whose trigger
    shares a character with its own. Returns (pairs, gold left, pred left)."""
    free = _document_order(pred)
    pairs, gold_left = [], []
    for g in _document_order(gold):
        g_frags = _trigger_fragments(gold, g)
        partner = None
        if g_frags is not None:
            for p in free:
                p_frags = _trigger_fragments(pred, p)
                if (p.event_type == g.event_type and p_frags is not None
                        and _share_a_character(g_frags, p_frags)):
                    partner = p
                    break
        if partner is None:
            gold_left.append(g)
        else:
            free.remove(partner)
            pairs.append((g, partner))
    return pairs, gold_left, free


def _slots(doc: Document, event, schema: AnnotationSchema) -> list:
    """The event's slots as a list of (key, match value): its trigger, then
    each argument whose role the schema declares for the event's type."""
    slots = [(("trigger", event.event_type, None, None), None)]
    specs = [s for s in schema.events if s.event_type == event.event_type]
    if not specs:
        return slots
    for role, target in event.arguments:
        arg = [a for a in specs[0].arguments if a.role == role]
        if not arg:
            continue
        arg = arg[0]
        if arg.kind == LABELED:
            carrier = event.id if schema.attributes_on_events else target
            values = [a.value for a in doc.attributes.values()
                      if a.target == carrier and a.name == arg.attribute_name]
            # the last attribute written wins, as in the standoff index
            subtype = values[-1] if values and values[-1] is not None else MISSING
            slots.append((("labeled_arg", event.event_type, arg.argument_type, subtype), subtype))
        else:
            span = doc.text_bounds[target].span.fragments
            slots.append((("span_only_arg", event.event_type, arg.argument_type, None), span))
    return slots


def reference_score(gold: Document, pred: Document, schema: AnnotationSchema) -> dict:
    """{(kind, event type, argument type, subtype): (tp, fn, fp)} for one
    note pair; cells that stay (0, 0, 0) are left out."""
    table: dict = {}

    def bump(key, column):
        cell = table.setdefault(key, [0, 0, 0])
        cell[column] += 1

    pairs, gold_left, pred_left = reference_align(gold, pred)
    for g, p in pairs:
        pred_slots = _slots(pred, p, schema)
        for slot in _slots(gold, g, schema):
            if slot in pred_slots:
                pred_slots.remove(slot)
                bump(slot[0], 0)
            else:
                bump(slot[0], 1)
        for slot in pred_slots:
            bump(slot[0], 2)
    for g in gold_left:
        for slot in _slots(gold, g, schema):
            bump(slot[0], 1)
    for p in pred_left:
        for slot in _slots(pred, p, schema):
            bump(slot[0], 2)
    return {key: tuple(cell) for key, cell in table.items()}
