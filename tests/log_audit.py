"""Bills re-derived from a simulation's event log alone.

`rederive_bills` reads only the lines of `events.log`, the catalog and the
price traces, never the simulator's state, so a report whose bills it
reproduces is checked by a second derivation and not only by a pinned
digest.  For each instance it takes:

- the ready time: the `InstanceRequest` time plus the catalog lag of the
  requested kind (an `InstanceReady` line, when there is one, must agree);
- the end time: its `InstanceRelease` (user-terminated) or `OutOfBid` line;
- the billed hours: ceil-division of the lifetime by 3600, or floor
  division for an out-of-bid spot instance, whose last partial hour is free;
- the amount: on demand, hours times the on-demand price; spot, the
  cyclically replayed trace price at the start of each hour, summed in hour
  order.

It also checks that an instance runs at most one task at a time, and only
between its ready time and its end.
"""

import re

LINE = re.compile(r"(\d+) (\w+)((?: \w+=\S+)*)$")


def rederive_bills(log_lines, catalog, traces):
    """(amounts by instance id, hours by "<type name>:<spot|ondemand>") from the log."""
    ready, kind, end, running = {}, {}, {}, {}
    for line in log_lines:
        m = LINE.match(line)
        assert m, line
        now, event = int(m.group(1)), m.group(2)
        fields = dict(kv.split("=") for kv in m.group(3).split())
        inst = int(fields["inst"]) if "inst" in fields else None
        if event == "InstanceRequest":
            assert inst == len(ready), line  # ids are request order
            type_id, is_spot = int(fields["type"]), fields["spot"] == "1"
            kind[inst] = (type_id, is_spot)
            ready[inst] = now + int(catalog[type_id].lag(is_spot))
        elif event == "InstanceReady":
            assert now == ready[inst], line
        elif event == "TaskStart":
            assert ready[inst] <= now and inst not in end, line
            assert inst not in running, "%s: inst %d still runs a task" % (line, inst)
            running[inst] = now + int(fields["duration"])
        elif event == "TaskFinish":
            assert running.pop(inst) == now, line
        elif event in ("InstanceRelease", "OutOfBid"):
            assert inst not in end, line
            if event == "InstanceRelease":
                assert inst not in running, line
            else:
                assert kind[inst][1], "%s: on-demand instance out of bid" % line
                running.pop(inst, None)  # the task it ran is killed with it
            end[inst] = (now, event == "OutOfBid")
    assert sorted(end) == list(range(len(ready))), "an instance was never released"

    amounts, hours_by_kind = [], {}
    for inst in range(len(ready)):
        (type_id, is_spot), (end_time, out_of_bid) = kind[inst], end[inst]
        itype = catalog[type_id]
        elapsed = end_time - ready[inst]
        hours = elapsed // 3600 if out_of_bid else -(-elapsed // 3600)
        if is_spot:
            amount = 0.0
            for h in range(hours):
                amount += traces[type_id].price_at_cyclic(ready[inst] + h * 3600)
        else:
            amount = hours * itype.ondemand_price
        amounts.append(amount)
        key = "%s:%s" % (itype.name, "spot" if is_spot else "ondemand")
        hours_by_kind[key] = hours_by_kind.get(key, 0) + hours
    return amounts, hours_by_kind
