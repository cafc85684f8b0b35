/* Compiled arithmetic kernel; mirrors qlsmodcat._kernel.pure exactly.
 *
 * Each exported function is the C transcription of the function of the
 * same name in pure.py, and the two must agree on every pair of tuples,
 * the shortcut of mul for a factor of 1 or -1 included.  (Other
 * sequences are read as tuples, so norm_pair of a list gives a tuple
 * where pure.py may hand the list back.)  Coefficients stay
 * arbitrary-precision Python integers (every operation goes through
 * PyNumber_*), so nothing can overflow: the speedup comes from removing
 * interpreter dispatch in the loops, not from fixed-width arithmetic.
 *
 * setup.py builds it; by hand:
 *   cc -shared -fPIC -O2 -I <Python include dir> _speedups.c \
 *      -o _speedups$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *gcd_fn;                /* math.gcd, taken at import */
static PyObject *ZERO, *ONE, *MINUS_ONE;

/* ------------------------------------------------------------ helpers */

/* A pair (nums, den) unpacked as pure's "nums, den = a" does.  `pair`
 * and `nums` are new references to tuples (the objects themselves when
 * they are tuples; every sequence is read as a tuple, whose items cannot
 * move while Python code runs); `den` and the coefficients c[0..n) are
 * borrowed from them. */
typedef struct {
    PyObject *pair, *nums, *den, **c;
    Py_ssize_t n;
} Pair;

static void pair_close(Pair *p)
{
    Py_CLEAR(p->pair);
    Py_CLEAR(p->nums);
}

static int pair_open(PyObject *a, Pair *p)
{
    p->nums = NULL;
    if ((p->pair = PySequence_Tuple(a)) == NULL)
        return -1;
    if (PyTuple_GET_SIZE(p->pair) != 2) {
        PyErr_Format(PyExc_ValueError, "expected a pair (nums, den), got %zd values",
                     PyTuple_GET_SIZE(p->pair));
        pair_close(p);
        return -1;
    }
    p->den = PyTuple_GET_ITEM(p->pair, 1);
    p->nums = PySequence_Tuple(PyTuple_GET_ITEM(p->pair, 0));
    if (p->nums == NULL) {
        pair_close(p);
        return -1;
    }
    p->c = PySequence_Fast_ITEMS(p->nums);
    p->n = PySequence_Fast_GET_SIZE(p->nums);
    return 0;
}

/* pair_open on two operands; both or neither stay open */
static int pairs_open(PyObject *a, Pair *A, PyObject *b, Pair *B)
{
    if (pair_open(a, A) < 0)
        return -1;
    if (pair_open(b, B) < 0) {
        pair_close(A);
        return -1;
    }
    return 0;
}

static int eq(PyObject *x, PyObject *y)
{
    return PyObject_RichCompareBool(x, y, Py_EQ);
}

/* tuple(x[i] * s +- y[i] * t for i in range(n)).  s or t NULL stands for
 * 1; y NULL drops the second term; x NULL makes the tuple -y[i]. */
static PyObject *lincomb(PyObject **x, PyObject *s, PyObject **y, PyObject *t,
                         int minus, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n), *u, *w, *v;
    Py_ssize_t i;

    for (i = 0; out != NULL && i < n; i++) {
        if (x == NULL) {
            v = PyNumber_Negative(y[i]);
        }
        else if ((u = s ? PyNumber_Multiply(x[i], s) : Py_NewRef(x[i])) == NULL) {
            v = NULL;
        }
        else if (y == NULL) {
            v = u;
        }
        else {
            w = t ? PyNumber_Multiply(y[i], t) : Py_NewRef(y[i]);
            v = w == NULL ? NULL : minus ? PyNumber_Subtract(u, w) : PyNumber_Add(u, w);
            Py_DECREF(u);
            Py_XDECREF(w);
        }
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* ------------------------------------------------------------ kernel */

/* pure.norm_pair: canonical form, positive denominator, content coprime
 * to it; a new reference */
static PyObject *normalize(PyObject *nums_in, PyObject *den_in)
{
    PyObject *nums, *den, *g = NULL, *out = NULL, *tmp, *args[2];
    Py_ssize_t i, n;
    int r = eq(den_in, ZERO);

    if (r != 0) {
        if (r > 0)
            PyErr_SetString(PyExc_ZeroDivisionError, "zero denominator");
        return NULL;
    }
    if ((nums = PySequence_Tuple(nums_in)) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(nums);
    den = Py_NewRef(den_in);
    if ((r = PyObject_RichCompareBool(den, ZERO, Py_LT)) < 0)
        goto done;
    if (r) {
        if ((tmp = PyNumber_Negative(den)) == NULL)
            goto done;
        Py_SETREF(den, tmp);
        if ((tmp = lincomb(NULL, NULL, PySequence_Fast_ITEMS(nums), NULL, 0, n)) == NULL)
            goto done;
        Py_SETREF(nums, tmp);
    }
    g = Py_NewRef(den);
    for (i = 0; i < n; i++) {
        if ((r = eq(g, ONE)) < 0)
            goto done;
        if (r)
            break;
        args[0] = g;
        args[1] = PySequence_Fast_GET_ITEM(nums, i);
        if ((tmp = PyObject_Vectorcall(gcd_fn, args, 2, NULL)) == NULL)
            goto done;
        Py_SETREF(g, tmp);
    }
    if (i == n && (r = PyObject_RichCompareBool(g, ONE, Py_GT)) != 0) {
        if (r < 0 || (tmp = PyNumber_FloorDivide(den, g)) == NULL)
            goto done;
        Py_SETREF(den, tmp);
        if ((tmp = PyTuple_New(n)) == NULL)
            goto done;
        for (i = 0; i < n; i++) {
            PyObject *q = PyNumber_FloorDivide(PySequence_Fast_GET_ITEM(nums, i), g);
            if (q == NULL) {
                Py_DECREF(tmp);
                goto done;
            }
            PyTuple_SET_ITEM(tmp, i, q);
        }
        Py_SETREF(nums, tmp);
    }
    out = PyTuple_Pack(2, nums, den);
done:
    Py_XDECREF(g);
    Py_DECREF(den);
    Py_DECREF(nums);
    return out;
}

/* pure.add (minus = 0) and pure.sub (minus = 1) */
static PyObject *add_or_sub(PyObject *a, PyObject *b, int minus)
{
    Pair A, B;
    PyObject *nums = NULL, *den = NULL, *out = NULL;
    Py_ssize_t n;
    int r;

    if (pairs_open(a, &A, b, &B) < 0)
        return NULL;
    n = A.n < B.n ? A.n : B.n;          /* zip stops at the shorter */
    if ((r = eq(A.den, B.den)) < 0)
        goto done;
    if (r) {
        if ((nums = lincomb(A.c, NULL, B.c, NULL, minus, n)) == NULL
                || (r = eq(A.den, ONE)) < 0)
            goto done;
        out = r ? PyTuple_Pack(2, nums, ONE) : normalize(nums, A.den);
    }
    else if ((nums = lincomb(A.c, B.den, B.c, A.den, minus, n)) != NULL
             && (den = PyNumber_Multiply(A.den, B.den)) != NULL)
        out = normalize(nums, den);
done:
    Py_XDECREF(nums);
    Py_XDECREF(den);
    pair_close(&A);
    pair_close(&B);
    return out;
}

/* pure.neg */
static PyObject *neg_pair(Pair *A)
{
    PyObject *nums = lincomb(NULL, NULL, A->c, NULL, 0, A->n), *out;

    if (nums == NULL)
        return NULL;
    out = PyTuple_Pack(2, nums, A->den);
    Py_DECREF(nums);
    return out;
}

/* 1 if `a` equals the canonical pair of 1 in degree d, -1 if that of -1,
 * 0 otherwise, -2 on error: pure.mul's "a == one" and "a == minus_one",
 * which hold only for a tuple whose nums are a tuple. */
static int unit_sign(PyObject *a, Pair *A, Py_ssize_t d)
{
    Py_ssize_t k;
    int r, sign = 1;

    if (!PyTuple_Check(a) || !PyTuple_Check(PyTuple_GET_ITEM(A->pair, 0))
            || A->n != d || d == 0)
        return 0;
    if ((r = eq(A->c[0], ONE)) == 0) {
        sign = -1;
        r = eq(A->c[0], MINUS_ONE);
    }
    for (k = 1; r > 0 && k < d; k++)
        r = eq(A->c[k], ZERO);
    if (r > 0)
        r = eq(A->den, ONE);
    return r < 0 ? -2 : r * sign;
}

/* *acc += x * y unless y is zero: pure's "if y: prod[...] += x * y".  A
 * NULL y is an index past the end of a tuple. */
static int addmul(PyObject **acc, PyObject *x, PyObject *y)
{
    PyObject *t, *s;
    int r;

    if (y == NULL) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return -1;
    }
    if ((r = PyObject_IsTrue(y)) <= 0)
        return r;
    if ((t = PyNumber_Multiply(x, y)) == NULL)
        return -1;
    s = PyNumber_Add(*acc, t);
    Py_DECREF(t);
    if (s == NULL)
        return -1;
    Py_SETREF(*acc, s);
    return 0;
}

#define ITEM(seq, i) ((i) < PySequence_Fast_GET_SIZE(seq) ? PySequence_Fast_GET_ITEM(seq, i) : NULL)

/* The coefficients of the product an * bn, reduced with the rows red[j]
 * (the basis power d + j); not normalized. */
static PyObject *raw_product(Pair *A, Pair *B, PyObject *red)
{
    PyObject *stack[64], **prod = stack, *rows = NULL, *row = NULL, *out = NULL;
    Py_ssize_t d = A->n, n2 = d > 0 ? 2 * d - 1 : 0, i, j, k;
    int r;

    if (n2 > 64 && (prod = PyMem_New(PyObject *, n2)) == NULL)
        return PyErr_NoMemory();
    for (i = 0; i < n2; i++)
        prod[i] = Py_NewRef(ZERO);
    for (i = 0; i < d; i++) {
        if ((r = PyObject_IsTrue(A->c[i])) < 0)
            goto done;
        for (j = 0; r && j < d; j++) {
            if (addmul(&prod[i + j], A->c[i], ITEM(B->nums, j)) < 0)
                goto done;
        }
    }
    if ((rows = PySequence_Tuple(red)) == NULL)
        goto done;
    for (j = 2 * d - 2; j >= d; j--) {
        if ((r = PyObject_IsTrue(prod[j])) < 0)
            goto done;
        if (!r)
            continue;
        if ((row = ITEM(rows, j - d)) == NULL) {
            PyErr_SetString(PyExc_IndexError, "tuple index out of range");
            goto done;
        }
        if ((row = PySequence_Tuple(row)) == NULL)
            goto done;
        for (k = 0; k < d; k++) {
            if (addmul(&prod[k], prod[j], ITEM(row, k)) < 0)
                goto done;
        }
        Py_CLEAR(row);
    }
    if ((out = PyTuple_New(d)) != NULL) {
        for (i = 0; i < d; i++) {       /* the tuple takes over prod[:d] */
            PyTuple_SET_ITEM(out, i, prod[i]);
            prod[i] = NULL;
        }
    }
done:
    for (i = 0; i < n2; i++)
        Py_XDECREF(prod[i]);
    Py_XDECREF(row);
    Py_XDECREF(rows);
    if (prod != stack)
        PyMem_Free(prod);
    return out;
}

/* pure.mul */
static PyObject *mul_impl(PyObject *a, PyObject *b, PyObject *red)
{
    Pair A, B;
    PyObject *nums = NULL, *den = NULL, *out = NULL;
    int r, sa, sb = 0;

    if (pairs_open(a, &A, b, &B) < 0)
        return NULL;
    if ((r = eq(A.den, ONE)) == 0)
        r = eq(B.den, ONE);
    if (r < 0)
        goto done;
    if (r) {
        /* a factor of 1 or -1 returns the other one, or its negation */
        sa = unit_sign(a, &A, A.n);
        if (sa == -2 || (sa == 0 && (sb = unit_sign(b, &B, A.n)) == -2))
            goto done;
        if (sa == 1 || sb == 1) {
            out = Py_NewRef(sa ? b : a);
            goto done;
        }
        if (sa || sb) {
            out = neg_pair(sa ? &B : &A);
            goto done;
        }
    }
    if ((nums = raw_product(&A, &B, red)) != NULL
            && (den = PyNumber_Multiply(A.den, B.den)) != NULL)
        out = normalize(nums, den);
done:
    Py_XDECREF(nums);
    Py_XDECREF(den);
    pair_close(&A);
    pair_close(&B);
    return out;
}

/* ------------------------------------------------------------ exports */

#define FASTCALL(name, want)                                                \
    static PyObject *k_##name##_(PyObject *const *args);                    \
    static PyObject *k_##name(PyObject *Py_UNUSED(m), PyObject *const *args,\
                              Py_ssize_t nargs)                             \
    {                                                                       \
        if (nargs == want)                                                  \
            return k_##name##_(args);                                       \
        PyErr_Format(PyExc_TypeError, #name "() takes exactly %d arguments" \
                     " (%zd given)", want, nargs);                          \
        return NULL;                                                        \
    }                                                                       \
    static PyObject *k_##name##_(PyObject *const *args)

FASTCALL(norm_pair, 2) { return normalize(args[0], args[1]); }
FASTCALL(add, 2) { return add_or_sub(args[0], args[1], 0); }
FASTCALL(sub, 2) { return add_or_sub(args[0], args[1], 1); }
FASTCALL(mul, 3) { return mul_impl(args[0], args[1], args[2]); }

FASTCALL(submul, 4)
{
    PyObject *prod = mul_impl(args[1], args[2], args[3]), *out;

    if (prod == NULL)
        return NULL;
    out = add_or_sub(args[0], prod, 1);
    Py_DECREF(prod);
    return out;
}

FASTCALL(rat_mul, 3)
{
    Pair A;
    PyObject *nums = NULL, *den = NULL, *out = NULL;
    Py_ssize_t i;
    int r;

    if (pair_open(args[2], &A) < 0)
        return NULL;
    if ((r = eq(args[0], ZERO)) < 0)
        goto done;
    if (r) {
        if ((nums = PyTuple_New(A.n)) == NULL)
            goto done;
        for (i = 0; i < A.n; i++)
            PyTuple_SET_ITEM(nums, i, Py_NewRef(ZERO));
        out = PyTuple_Pack(2, nums, ONE);
    }
    else if ((nums = lincomb(A.c, args[0], NULL, NULL, 0, A.n)) != NULL
             && (den = PyNumber_Multiply(A.den, args[1])) != NULL)
        out = normalize(nums, den);
done:
    Py_XDECREF(nums);
    Py_XDECREF(den);
    pair_close(&A);
    return out;
}

static PyObject *k_is_zero(PyObject *Py_UNUSED(m), PyObject *a)
{
    PyObject *nums = PySequence_GetItem(a, 0), *seq;
    Py_ssize_t i;
    int r = 0;

    if (nums == NULL)
        return NULL;
    seq = PySequence_Tuple(nums);
    Py_DECREF(nums);
    if (seq == NULL)
        return NULL;
    for (i = 0; r == 0 && i < PySequence_Fast_GET_SIZE(seq); i++)
        r = PyObject_IsTrue(PySequence_Fast_GET_ITEM(seq, i));
    Py_DECREF(seq);
    return r < 0 ? NULL : PyBool_FromLong(!r);
}

static PyObject *k_neg(PyObject *Py_UNUSED(m), PyObject *a)
{
    Pair A;
    PyObject *out;

    if (pair_open(a, &A) < 0)
        return NULL;
    out = neg_pair(&A);
    pair_close(&A);
    return out;
}

#define FAST(name, doc) \
    {#name, (PyCFunction)(void (*)(void))k_##name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    FAST(norm_pair, "Canonical form: positive denominator, content coprime to it."),
    {"is_zero", k_is_zero, METH_O, NULL},
    {"neg", k_neg, METH_O, NULL},
    FAST(add, NULL),
    FAST(sub, NULL),
    FAST(rat_mul, "Multiply by the rational number p/q."),
    FAST(mul, NULL),
    FAST(submul, "Return a - f*b in one step (the inner operation of row elimination)."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_speedups",
    "Compiled arithmetic kernel; mirrors qlsmodcat._kernel.pure exactly.",
    -1, kernel_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    PyObject *m, *math, *names;

    if ((math = PyImport_ImportModule("math")) == NULL)
        return NULL;
    gcd_fn = PyObject_GetAttrString(math, "gcd");
    Py_DECREF(math);
    if (gcd_fn == NULL
            || (ZERO = PyLong_FromLong(0)) == NULL
            || (ONE = PyLong_FromLong(1)) == NULL
            || (MINUS_ONE = PyLong_FromLong(-1)) == NULL
            || (m = PyModule_Create(&kernel_module)) == NULL)
        return NULL;
    names = Py_BuildValue("[sssssssss]", "BACKEND", "add", "is_zero", "mul",
                          "neg", "norm_pair", "rat_mul", "sub", "submul");
    if (names == NULL || PyModule_AddObjectRef(m, "__all__", names) < 0
            || PyModule_AddStringConstant(m, "BACKEND", "c") < 0) {
        Py_XDECREF(names);
        Py_DECREF(m);
        return NULL;
    }
    Py_DECREF(names);
    return m;
}
