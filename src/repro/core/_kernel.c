/* Native depth-first searches for the Section 7 *Trace* and *Vias*.
 *
 * A plain CPython C-API port of the scalar loops ``_trace_dfs`` and
 * ``_vias_dfs`` in repro/core/single_layer.py, which remain the
 * reference: same arguments, same return tuples, same pop order, same
 * ``max_gaps`` and budget checks (every SEARCH_CHECK_MASK + 1 pops),
 * same child ordering, and the same lazy ``full_bounds`` calls in the
 * same order, so gap-cache hits and misses are equal too.  *Vias* also
 * ports ``_collect_sites``, with its via-map probe tally.
 *
 * Views are the Python ``(gaps, los, his)`` tuples the gap cache hands
 * out; the kernel reads their ``los``/``his`` lists in place and keeps
 * its per-search state (views, seen/parent marks, the stack) in C.
 * Built and loaded by repro.core.fastpath.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if PY_VERSION_HEX < 0x030A0000
static inline PyObject *
Py_NewRef(PyObject *o)
{
    Py_INCREF(o);
    return o;
}
#endif

/* Set once by configure(). */
static long check_mask = 63;
static PyObject *mixed_marker = NULL;
static PyTypeObject *via_point_type = NULL;

/* One channel of the search box: its full-span view, read lazily. */
typedef struct {
    PyObject *view;  /* owned (gaps, los, his) tuple; NULL until read */
    PyObject *los;   /* borrowed from view */
    PyObject *his;
    Py_ssize_t n;
    int64_t *mark;   /* per gap: 0 unseen, else parent key + 2 */
} Chan;

typedef struct {
    int64_t key;
    long c, lo, hi;
} Entry;

typedef struct {
    PyObject *full_bounds;
    PyObject *passable;
    long c_lo, c_hi, lo, hi;
    int64_t stride;
    Chan *chans;
    Entry *stack;
    Py_ssize_t sp, cap;
} Search;

static long
item(PyObject *list, Py_ssize_t i)
{
    /* Gap bounds are ints in grid range, so this cannot fail; should it
       anyway, the error stays set and is checked before the next call
       into Python and once after the loop. */
    return PyLong_AsLong(PyList_GET_ITEM(list, i));
}

/* First index in [lo, n) whose his >= x (bisect_left). */
static Py_ssize_t
bisect_left(PyObject *list, Py_ssize_t lo, Py_ssize_t n, long x)
{
    while (lo < n) {
        Py_ssize_t mid = (lo + n) / 2;
        if (item(list, mid) < x)
            lo = mid + 1;
        else
            n = mid;
    }
    return lo;
}

/* First index in [lo, n) whose los > x (bisect_right). */
static Py_ssize_t
bisect_right(PyObject *list, Py_ssize_t lo, Py_ssize_t n, long x)
{
    while (lo < n) {
        Py_ssize_t mid = (lo + n) / 2;
        if (x < item(list, mid))
            n = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static int
set_view(Chan *ch, PyObject *view)
{
    if (!PyTuple_Check(view) || PyTuple_GET_SIZE(view) != 3
        || !PyList_Check(PyTuple_GET_ITEM(view, 1))
        || !PyList_Check(PyTuple_GET_ITEM(view, 2))
        || PyList_GET_SIZE(PyTuple_GET_ITEM(view, 1))
               != PyList_GET_SIZE(PyTuple_GET_ITEM(view, 2))) {
        PyErr_SetString(PyExc_TypeError,
                        "full_bounds must return (gaps, los, his) with "
                        "equal-length lo and hi lists");
        Py_DECREF(view);
        return -1;
    }
    ch->view = view;
    ch->los = PyTuple_GET_ITEM(view, 1);
    ch->his = PyTuple_GET_ITEM(view, 2);
    ch->n = PyList_GET_SIZE(ch->los);
    ch->mark = PyMem_Calloc(ch->n ? ch->n : 1, sizeof(int64_t));
    if (ch->mark == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* The channel's view, read through full_bounds on first use. */
static Chan *
chan(Search *s, long c)
{
    Chan *ch = &s->chans[c - s->c_lo];
    if (ch->view == NULL) {
        PyObject *args[2];
        PyObject *view;
        if (PyErr_Occurred()) /* a failed item() read: call no Python */
            return NULL;
        args[0] = PyLong_FromLong(c);
        if (args[0] == NULL)
            return NULL;
        args[1] = s->passable;
        view = PyObject_Vectorcall(s->full_bounds, args, 2, NULL);
        Py_DECREF(args[0]);
        if (view == NULL || set_view(ch, view) < 0)
            return NULL;
    }
    return ch;
}

/* Room for one more item in a growable array of `n` used slots. */
static int
reserve(void **buf, Py_ssize_t *cap, Py_ssize_t n, size_t size)
{
    if (n == *cap) {
        Py_ssize_t grown_cap = *cap ? 2 * *cap : 16;
        void *grown = PyMem_Realloc(*buf, grown_cap * size);
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        *buf = grown;
        *cap = grown_cap;
    }
    return 0;
}

static int
push(Search *s, int64_t key, long c, long lo, long hi)
{
    if (reserve((void **)&s->stack, &s->cap, s->sp, sizeof(Entry)) < 0)
        return -1;
    s->stack[s->sp].key = key;
    s->stack[s->sp].c = c;
    s->stack[s->sp].lo = lo;
    s->stack[s->sp].hi = hi;
    s->sp++;
    return 0;
}

static int
search_open(Search *s, PyObject *const *args, long c_lo, long c_hi,
            long lo, long hi)
{
    memset(s, 0, sizeof(*s));
    s->full_bounds = args[0];
    s->passable = args[1];
    s->stride = PyLong_AsLongLong(args[3]);
    if (s->stride == -1 && PyErr_Occurred())
        return -1;
    s->c_lo = c_lo;
    s->c_hi = c_hi;
    s->lo = lo;
    s->hi = hi;
    s->chans = PyMem_Calloc(c_hi - c_lo + 1, sizeof(Chan));
    if (s->chans == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
search_close(Search *s)
{
    if (s->chans != NULL) {
        for (long i = 0; i <= s->c_hi - s->c_lo; i++) {
            Py_XDECREF(s->chans[i].view);
            PyMem_Free(s->chans[i].mark);
        }
    }
    PyMem_Free(s->chans);
    PyMem_Free(s->stack);
}

/* The start channel lies in the box (the caller clipped it there). */
static int
start_ok(long ca, long c_lo, long c_hi)
{
    if (c_lo <= ca && ca <= c_hi)
        return 1;
    PyErr_SetString(PyExc_ValueError, "start channel outside the box");
    return 0;
}

static int
gap_ok(Chan *ch, long si)
{
    if (0 <= si && si < ch->n)
        return 1;
    PyErr_SetString(PyExc_ValueError, "start gap outside its view");
    return 0;
}

/* True (1) when the budget callback says stop, 0 to go on, -1 on error. */
static int
exceeded(PyObject *search_exceeded, long examined)
{
    PyObject *r;
    int stop;
    if (search_exceeded == Py_None || (examined & check_mask) != 0)
        return 0;
    if (PyErr_Occurred())
        return -1;
    r = PyObject_CallNoArgs(search_exceeded);
    if (r == NULL)
        return -1;
    stop = PyObject_IsTrue(r);
    Py_DECREF(r);
    return stop;
}

/* Parse `count` long arguments from args[first:]. */
static int
longs(PyObject *const *args, Py_ssize_t first, Py_ssize_t count, long *out)
{
    for (Py_ssize_t i = 0; i < count; i++) {
        out[i] = PyLong_AsLong(args[first + i]);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *
result(PyObject *found, long examined, int capped)
{
    if (found == NULL)
        return NULL;
    return Py_BuildValue("(NlO)", found, examined,
                         capped ? Py_True : Py_False);
}

/* ------------------------------------------------------------------ */
/* Trace                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    long distance;
    Py_ssize_t order;
    Entry entry;
} Child;

static int
child_cmp(const void *pa, const void *pb)
{
    const Child *a = pa, *b = pb;
    /* Farthest first, insertion order on ties: a stable sort on
       -distance, so the nearest child is pushed last. */
    if (a->distance != b->distance)
        return a->distance > b->distance ? -1 : 1;
    return (a->order > b->order) - (a->order < b->order);
}

static PyObject *
chain_of(Search *s, int64_t goal)
{
    PyObject *chain = PyList_New(0);
    int64_t node = goal;
    if (chain == NULL)
        return NULL;
    while (node >= 0) {
        long c = (long)(node / s->stride);
        Py_ssize_t gi = (Py_ssize_t)(node % s->stride);
        Chan *ch = &s->chans[c - s->c_lo];
        long glo = item(ch->los, gi), ghi = item(ch->his, gi);
        PyObject *piece = Py_BuildValue(
            "(lll)", c, glo > s->lo ? glo : s->lo,
            ghi < s->hi ? ghi : s->hi);
        if (piece == NULL || PyList_Append(chain, piece) < 0) {
            Py_XDECREF(piece);
            Py_DECREF(chain);
            return NULL;
        }
        Py_DECREF(piece);
        node = ch->mark[gi] - 2;
    }
    if (PyList_Reverse(chain) < 0) {
        Py_DECREF(chain);
        return NULL;
    }
    return chain;
}

/* trace_dfs(full_bounds, passable, start_view, stride, ca, si, start_lo,
 *           start_hi, c_lo, c_hi, lo, hi, cb, xb, max_gaps,
 *           search_exceeded) -> (chain or None, examined, capped) */
static PyObject *
trace_dfs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long v[11];
    Search s;
    Child *children = NULL;
    Py_ssize_t children_cap = 0;
    PyObject *found = NULL, *search_exceeded;
    long examined = 0;
    int capped = 0, failed = 1;
    int64_t goal = -1;

    if (nargs != 16) {
        PyErr_SetString(PyExc_TypeError, "trace_dfs takes 16 arguments");
        return NULL;
    }
    if (longs(args, 4, 11, v) < 0)
        return NULL;
    search_exceeded = args[15];
    {
        long ca = v[0], si = v[1], start_lo = v[2], start_hi = v[3];
        long c_lo = v[4], c_hi = v[5], lo = v[6], hi = v[7];
        long cb = v[8], xb = v[9], max_gaps = v[10];
        int64_t start_key;
        Chan *start;

        if (!start_ok(ca, c_lo, c_hi))
            return NULL;
        if (search_open(&s, args, c_lo, c_hi, lo, hi) < 0)
            goto done;
        start = &s.chans[ca - c_lo];
        Py_INCREF(args[2]);
        if (set_view(start, args[2]) < 0 || !gap_ok(start, si))
            goto done;
        start_key = ca * s.stride + si;
        start->mark[si] = 1; /* parent -1 */
        if (ca == cb && start_lo <= xb && xb <= start_hi)
            goal = start_key;
        if (push(&s, start_key, ca, start_lo, start_hi) < 0)
            goto done;
        while (s.sp > 0 && goal < 0) {
            Entry e = s.stack[--s.sp];
            Py_ssize_t n_children = 0;
            int stop;
            examined++;
            if (examined > max_gaps) {
                capped = 1;
                break;
            }
            stop = exceeded(search_exceeded, examined);
            if (stop < 0)
                goto done;
            if (stop) {
                capped = 1;
                break;
            }
            for (long nc = e.c - 1; nc <= e.c + 1 && goal < 0; nc += 2) {
                Chan *ch;
                Py_ssize_t i, j;
                int64_t base = nc * s.stride;
                if (nc < c_lo || nc > c_hi)
                    continue;
                if ((ch = chan(&s, nc)) == NULL)
                    goto done;
                i = bisect_left(ch->his, 0, ch->n, e.lo);
                j = bisect_right(ch->los, i, ch->n, e.hi);
                for (Py_ssize_t ngi = i; ngi < j; ngi++) {
                    long nglo, nghi, distance;
                    Child *child;
                    if (ch->mark[ngi])
                        continue;
                    ch->mark[ngi] = e.key + 2;
                    nglo = item(ch->los, ngi);
                    if (nglo < lo)
                        nglo = lo;
                    nghi = item(ch->his, ngi);
                    if (nghi > hi)
                        nghi = hi;
                    if (nc == cb && nglo <= xb && xb <= nghi) {
                        goal = base + ngi;
                        break;
                    }
                    if (xb < nglo)
                        distance = nglo - xb;
                    else if (xb > nghi)
                        distance = xb - nghi;
                    else
                        distance = 0;
                    distance += nc > cb ? nc - cb : cb - nc;
                    if (reserve((void **)&children, &children_cap,
                                n_children, sizeof(Child)) < 0)
                        goto done;
                    child = &children[n_children];
                    child->distance = distance;
                    child->order = n_children++;
                    child->entry.key = base + ngi;
                    child->entry.c = nc;
                    child->entry.lo = nglo;
                    child->entry.hi = nghi;
                }
            }
            if (goal >= 0)
                break;
            if (n_children > 1)
                qsort(children, n_children, sizeof(Child), child_cmp);
            for (Py_ssize_t k = 0; k < n_children; k++) {
                Entry *c = &children[k].entry;
                if (push(&s, c->key, c->c, c->lo, c->hi) < 0)
                    goto done;
            }
        }
        if (PyErr_Occurred())
            goto done;
        if (goal >= 0) {
            found = chain_of(&s, goal);
            if (found == NULL)
                goto done;
        }
        else {
            found = Py_NewRef(Py_None);
        }
        failed = 0;
    }
done:
    search_close(&s);
    PyMem_Free(children);
    if (failed) {
        Py_XDECREF(found);
        return NULL;
    }
    return result(found, examined, capped);
}

/* ------------------------------------------------------------------ */
/* Vias                                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    long vc, v_lo, v_hi;
} Range;

static PyObject *
via_point(long vx, long vy)
{
    PyObject *x = PyLong_FromLong(vx), *y, *p;
    if (x == NULL)
        return NULL;
    y = PyLong_FromLong(vy);
    if (y == NULL) {
        Py_DECREF(x);
        return NULL;
    }
    /* ViaPoint is a NamedTuple: a tuple subtype without a dict, so a
       two-slot allocation of the subtype is a complete instance. */
    p = via_point_type->tp_alloc(via_point_type, 2);
    if (p == NULL) {
        Py_DECREF(x);
        Py_DECREF(y);
        return NULL;
    }
    PyTuple_SET_ITEM(p, 0, x);
    PyTuple_SET_ITEM(p, 1, y);
    return p;
}

/* Port of _collect_sites: available sites of the ranges, in order. */
static PyObject *
collect_sites(Range *ranges, Py_ssize_t n_ranges, int horizontal,
              long skip_vx, long skip_vy, PyObject *via_map,
              PyObject *passable)
{
    PyObject *found = NULL, *count_obj = NULL, *sole = NULL;
    PyObject *probe_count = NULL, *total = NULL, *probes_obj = NULL;
    Py_buffer count;
    long via_ny;
    long probes = 0;
    Py_ssize_t n_sites;
    int have_buffer = 0, ok = 0;

    count_obj = PyObject_GetAttrString(via_map, "_count");
    if (count_obj == NULL
        || PyObject_GetBuffer(count_obj, &count, PyBUF_FORMAT) < 0)
        goto done;
    have_buffer = 1;
    if (count.itemsize != sizeof(int) || count.format == NULL
        || strcmp(count.format, "i") != 0) {
        PyErr_SetString(PyExc_TypeError, "via_map._count must be array('i')");
        goto done;
    }
    n_sites = count.len / count.itemsize;
    {
        PyObject *ny = PyObject_GetAttrString(via_map, "via_ny");
        if (ny == NULL)
            goto done;
        via_ny = PyLong_AsLong(ny);
        Py_DECREF(ny);
        if (via_ny == -1 && PyErr_Occurred())
            goto done;
    }
    sole = PyObject_GetAttrString(via_map, "_sole");
    if (sole == NULL)
        goto done;
    if (!PyDict_Check(sole)) {
        PyErr_SetString(PyExc_TypeError, "via_map._sole must be a dict");
        goto done;
    }
    found = PyList_New(0);
    if (found == NULL)
        goto done;
    for (Py_ssize_t r = 0; r < n_ranges; r++) {
        for (long v = ranges[r].v_lo; v <= ranges[r].v_hi; v++) {
            long vx = horizontal ? v : ranges[r].vc;
            long vy = horizontal ? ranges[r].vc : v;
            Py_ssize_t at = (Py_ssize_t)vx * via_ny + vy;
            int available;
            if (vx == skip_vx && vy == skip_vy)
                continue;
            probes++;
            if (at < 0 || at >= n_sites) {
                PyErr_SetString(PyExc_IndexError, "via site off the map");
                goto done;
            }
            if (!((int *)count.buf)[at]) {
                available = 1;
            }
            else {
                PyObject *owner, *key = Py_BuildValue("(ll)", vx, vy);
                if (key == NULL)
                    goto done;
                owner = PyDict_GetItemWithError(sole, key);
                Py_DECREF(key);
                if (owner == NULL) {
                    if (PyErr_Occurred())
                        goto done;
                    available = 0; /* None in passable */
                }
                else if (owner == mixed_marker) {
                    available = 0;
                }
                else {
                    available = PySequence_Contains(passable, owner);
                    if (available < 0)
                        goto done;
                }
            }
            if (available) {
                PyObject *p = via_point(vx, vy);
                if (p == NULL || PyList_Append(found, p) < 0) {
                    Py_XDECREF(p);
                    goto done;
                }
                Py_DECREF(p);
            }
        }
    }
    probe_count = PyObject_GetAttrString(via_map, "probe_count");
    if (probe_count == NULL)
        goto done;
    probes_obj = PyLong_FromLong(probes);
    if (probes_obj == NULL)
        goto done;
    total = PyNumber_Add(probe_count, probes_obj);
    if (total == NULL
        || PyObject_SetAttrString(via_map, "probe_count", total) < 0)
        goto done;
    ok = 1;
done:
    if (have_buffer)
        PyBuffer_Release(&count);
    Py_XDECREF(count_obj);
    Py_XDECREF(sole);
    Py_XDECREF(probe_count);
    Py_XDECREF(probes_obj);
    Py_XDECREF(total);
    if (!ok) {
        Py_XDECREF(found);
        return NULL;
    }
    return found;
}

/* vias_dfs(full_bounds, passable, start_view, stride, ca, si, start_lo,
 *          start_hi, c_lo, c_hi, lo, hi, g, max_gaps, search_exceeded,
 *          via_map, horizontal, skip_vx, skip_vy)
 *     -> (sites, examined, capped) */
static PyObject *
vias_dfs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long v[11], skip[2];
    Search s;
    Range *ranges = NULL;
    Py_ssize_t n_ranges = 0, ranges_cap = 0;
    PyObject *found = NULL, *search_exceeded, *via_map;
    long examined = 0;
    int capped = 0, horizontal;

    if (nargs != 19) {
        PyErr_SetString(PyExc_TypeError, "vias_dfs takes 19 arguments");
        return NULL;
    }
    if (longs(args, 4, 10, v) < 0 || longs(args, 17, 2, skip) < 0)
        return NULL;
    search_exceeded = args[14];
    via_map = args[15];
    horizontal = PyObject_IsTrue(args[16]);
    if (horizontal < 0)
        return NULL;
    {
        long ca = v[0], si = v[1], start_lo = v[2], start_hi = v[3];
        long c_lo = v[4], c_hi = v[5], lo = v[6], hi = v[7];
        long g = v[8], max_gaps = v[9];
        Chan *start;

        if (g <= 0) {
            PyErr_SetString(PyExc_ValueError, "grid_per_via must be positive");
            return NULL;
        }
        if (!start_ok(ca, c_lo, c_hi))
            return NULL;
        if (search_open(&s, args, c_lo, c_hi, lo, hi) < 0)
            goto done;
        start = &s.chans[ca - c_lo];
        Py_INCREF(args[2]);
        if (set_view(start, args[2]) < 0 || !gap_ok(start, si))
            goto done;
        start->mark[si] = 1;
        if (push(&s, 0, ca, start_lo, start_hi) < 0)
            goto done;
        while (s.sp > 0) {
            Entry e = s.stack[--s.sp];
            int stop;
            examined++;
            if (examined > max_gaps) {
                capped = 1;
                break;
            }
            stop = exceeded(search_exceeded, examined);
            if (stop < 0)
                goto done;
            if (stop) {
                capped = 1;
                break;
            }
            if (e.c % g == 0) {
                long v_lo = (e.lo + g - 1) / g, v_hi = e.hi / g;
                if (v_hi >= v_lo) {
                    if (reserve((void **)&ranges, &ranges_cap, n_ranges,
                                sizeof(Range)) < 0)
                        goto done;
                    ranges[n_ranges].vc = e.c / g;
                    ranges[n_ranges].v_lo = v_lo;
                    ranges[n_ranges].v_hi = v_hi;
                    n_ranges++;
                }
            }
            for (long nc = e.c - 1; nc <= e.c + 1; nc += 2) {
                Chan *ch;
                Py_ssize_t i, j;
                if (nc < c_lo || nc > c_hi)
                    continue;
                if ((ch = chan(&s, nc)) == NULL)
                    goto done;
                i = bisect_left(ch->his, 0, ch->n, e.lo);
                j = bisect_right(ch->los, i, ch->n, e.hi);
                for (Py_ssize_t ngi = i; ngi < j; ngi++) {
                    long nglo, nghi;
                    if (ch->mark[ngi])
                        continue;
                    ch->mark[ngi] = 1;
                    nglo = item(ch->los, ngi);
                    if (nglo < lo)
                        nglo = lo;
                    nghi = item(ch->his, ngi);
                    if (nghi > hi)
                        nghi = hi;
                    if (push(&s, 0, nc, nglo, nghi) < 0)
                        goto done;
                }
            }
        }
        if (PyErr_Occurred())
            goto done;
        found = collect_sites(ranges, n_ranges, horizontal, skip[0],
                              skip[1], via_map, args[1]);
    }
done:
    search_close(&s);
    PyMem_Free(ranges);
    return result(found, examined, capped);
}

/* ------------------------------------------------------------------ */

static PyObject *
configure(PyObject *self, PyObject *args)
{
    PyObject *marker, *point_type;
    long mask;
    if (!PyArg_ParseTuple(args, "lOO!", &mask, &marker, &PyType_Type,
                          &point_type))
        return NULL;
    if (!PyType_IsSubtype((PyTypeObject *)point_type, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "the via point type must be a tuple");
        return NULL;
    }
    check_mask = mask;
    Py_XSETREF(mixed_marker, Py_NewRef(marker));
    Py_XSETREF(via_point_type, (PyTypeObject *)Py_NewRef(point_type));
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"trace_dfs", (PyCFunction)(void (*)(void))trace_dfs, METH_FASTCALL,
     "Native single_layer._trace_dfs."},
    {"vias_dfs", (PyCFunction)(void (*)(void))vias_dfs, METH_FASTCALL,
     "Native single_layer._vias_dfs."},
    {"configure", configure, METH_VARARGS,
     "configure(search_check_mask, mixed_marker, via_point_type)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Native Trace/Vias depth-first searches (see repro.core.fastpath).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
