"""Bills and schedule rules re-derived from a simulation's event log.

`parse` reads the lines of `events.log` once; the checks below take its
events.  `rederive_bills` reads only those events, the catalog and the
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

`rederive_report` adds the jobs: each job's arrival and completion are the
times of its `JobArrival` and `JobComplete` lines, its makespan their
difference, its deadline its class's in `plans.json`, and it hits when the
makespan is at most the deadline.  From those rows and the bills (summed
in instance-id order) follow `avg_makespan_s`, `hit_rate`, `total_cost`
and `avg_cost_per_job`, as `report.json` holds them.

`check_schedule` reads the same lines, the workflow DAGs, `plans.json` and
the traces, and checks the order and placement of the work:

- a task starts only after every predecessor in its job has finished, and
  attempt k >= 1 only after an `OutOfBid` of the instance holding attempt
  k - 1;
- a request asks for its attempt's planned type and kind;
- a spot instance ends by `OutOfBid` exactly at the ceiling of the first
  time, at or after its ready time, at which the cyclically replayed trace
  exceeds its bid, and by `InstanceRelease` only before that time; an
  on-demand instance never goes out of bid;
- a reused instance is of the request's type, a spot instance is reused
  only by a spot request bidding at most its own bid, and an on-demand
  request never lands on a spot instance.
"""

import math
import re

LINE = re.compile(r"(\d+) (\w+)((?: \w+=\S+)*)$")


def parse(log_lines):
    """The events of a log: (time, event, integer fields, line) of each line,
    in order; `class` stays a string."""
    events = []
    for line in log_lines:
        assert LINE.match(line), line
        now, event, *pairs = line.split(" ")
        fields = {k: v if k == "class" else int(v) for k, v in (p.split("=") for p in pairs)}
        events.append((int(now), event, fields, line))
    return events


def rederive_bills(events, catalog, traces):
    """(amounts by instance id, hours by "<type name>:<spot|ondemand>") from the
    log's events."""
    ready, kind, end, running = {}, {}, {}, {}
    for now, event, fields, line in events:
        inst = fields.get("inst")
        if event == "InstanceRequest":
            assert inst == len(ready), line  # ids are request order
            type_id, is_spot = fields["type"], fields["spot"] == 1
            kind[inst] = (type_id, is_spot)
            ready[inst] = now + int(catalog[type_id].lag(is_spot))
        elif event == "InstanceReady":
            assert now == ready[inst], line
        elif event == "TaskStart":
            assert ready[inst] <= now and inst not in end, line
            assert inst not in running, "%s: inst %d still runs a task" % (line, inst)
            running[inst] = now + fields["duration"]
        elif event == "TaskFinish":
            assert running.pop(inst) == now, line
        elif event in ("InstanceRelease", "OutOfBid"):
            assert inst not in end, line
            if event == "InstanceRelease":
                assert inst not in running, line
            else:
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


def rederive_report(events, plans, catalog, traces):
    """The report.json fields that follow from the log's events, plans.json and
    the traces.

    plans is the decoded plans.json document.  Returns job_count, per_job,
    avg_makespan_s, hit_rate, total_cost, avg_cost_per_job, instance_bills
    and instance_hours.
    """
    arrival, completion, job_class = {}, {}, {}
    for now, event, fields, line in events:
        if event == "JobArrival":
            assert fields["job"] == len(arrival), line  # jobs arrive in index order
            arrival[fields["job"]] = now
            job_class[fields["job"]] = fields["class"]
        elif event == "JobComplete":
            assert fields["job"] in arrival and fields["job"] not in completion, line
            completion[fields["job"]] = now
    assert sorted(completion) == list(range(len(arrival))), "a job never completed"
    per_job = []
    for job in range(len(arrival)):
        deadline = plans["classes"][job_class[job]]["deadline"]
        makespan = completion[job] - arrival[job]
        per_job.append({"job": job, "class": job_class[job], "arrival": arrival[job],
                        "completion": completion[job], "makespan_s": makespan,
                        "deadline_s": deadline, "hit": makespan <= deadline})
    bills, hours = rederive_bills(events, catalog, traces)
    n = len(per_job)
    total = sum(bills)
    return {"job_count": n, "per_job": per_job,
            "avg_makespan_s": sum(row["makespan_s"] for row in per_job) / n,
            "hit_rate": sum(row["hit"] for row in per_job) / n,
            "total_cost": total, "avg_cost_per_job": total / n,
            "instance_bills": bills, "instance_hours": hours}


def check_schedule(events, workflows, plans, catalog, traces):
    """Assert the precedence, request, out-of-bid and reuse rules above.

    workflows maps class id to its WorkflowJob, plans is the decoded
    plans.json document and traces maps type id to its price trace.
    """
    job_class = {}
    attempts = {}  # (job, task) -> instances of its attempts, in request order
    holder = {}  # instance -> the (job, task, attempt) it holds until finishing it
    killed = set()  # (job, task, attempt) whose instance went out of bid
    finished = set()  # (job, task)
    bought = {}  # instance -> (type id, spot flag, bid) of the request that bought it
    out_of_bid_at = {}  # spot instance -> the time its bid is first exceeded, or None
    for now, event, fields, line in events:
        inst = fields.get("inst")
        if event == "JobArrival":
            job_class[fields["job"]] = fields["class"]
        elif event in ("InstanceRequest", "InstanceReuse"):
            job, task = fields["job"], fields["task"]
            tried = attempts.setdefault((job, task), [])
            dim = plans["classes"][job_class[job]]["tasks"][task][len(tried)]
            want = dim["type_id"], dim["is_spot"], dim["price"]
            if event == "InstanceRequest":
                assert (fields["type"], fields["spot"] == 1) == want[:2], line
                bought[inst] = want
                if want[1]:
                    ready = now + int(catalog[want[0]].lag(True))
                    fail = traces[want[0]].first_exceedance_cyclic(ready, want[2])
                    out_of_bid_at[inst] = None if fail is None else math.ceil(fail)
            else:
                type_id, is_spot, bid = bought[inst]
                assert type_id == want[0], "%s: reuse of another type" % line
                assert want[1] or not is_spot, "%s: on-demand request on a spot instance" % line
                assert not is_spot or want[2] <= bid, "%s: spot instance reused above its bid" % line
            tried.append(inst)
            holder[inst] = (job, task, len(tried) - 1)
        elif event == "TaskStart":
            job, task, attempt = fields["job"], fields["task"], fields["attempt"]
            assert holder.get(inst) == (job, task, attempt), line
            preds = workflows[job_class[job]].tasks[task].predecessors
            assert all((job, p) in finished for p in preds), \
                "%s: a predecessor has not finished" % line
            assert attempt == 0 or (job, task, attempt - 1) in killed, \
                "%s: no out-of-bid of the instance holding attempt %d" % (line, attempt - 1)
        elif event == "TaskFinish":
            finished.add((fields["job"], fields["task"]))
            del holder[inst]
        elif event == "OutOfBid":
            assert bought[inst][1], "%s: on-demand instance out of bid" % line
            assert now == out_of_bid_at[inst], "%s: bid first exceeded at %s" % (
                line, out_of_bid_at[inst])
            if inst in holder:
                killed.add(holder.pop(inst))
        elif event == "InstanceRelease" and bought[inst][1]:
            fail = out_of_bid_at[inst]
            assert fail is None or now < fail, "%s: released after its bid was exceeded" % line
