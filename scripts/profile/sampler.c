/*
 * A SIGPROF stack sampler loaded with LD_PRELOAD.
 *
 * When SAMPLER_OUT names a file, every process that loads the shim arms
 * ITIMER_PROF and, on each tick of CPU time it consumes, appends one line
 * to that file:
 *
 *   S <pid> <ip> <ret> <ret> ...     (hex, innermost first)
 *
 * The return addresses come from a frame-pointer walk, so the program
 * must be built with `-C force-frame-pointers=yes`. When the sample lands
 * outside the main executable (a libc leaf such as memcpy, which sets up
 * no frame), the word at the stack pointer is taken as the caller's
 * return address if it points into the executable's text.
 *
 * At start-up the shim also writes the executable's load bias and path,
 * so `symbolize.py` can hand link-time addresses to addr2line:
 *
 *   B <pid> <bias> <path>
 *
 * Each line is one write(2) on an O_APPEND descriptor: async-signal-safe,
 * and lines from several processes do not interleave.
 *
 * The timer fires at the kernel tick at most (CONFIG_HZ, often 250 Hz),
 * whatever interval is asked for; `profile.sh` prints the rate it got.
 *
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 128

static int out_fd = -1;
static uintptr_t text_lo, text_hi;   /* executable's text, run-time */
static uintptr_t stack_lo, stack_hi; /* main thread's stack */

/* Appends `v` in hex to `p`, returns the new end. */
static char *put_hex(char *p, uintptr_t v) {
    char tmp[16];
    int n = 0;
    do {
        tmp[n++] = "0123456789abcdef"[v & 15];
        v >>= 4;
    } while (v);
    while (n)
        *p++ = tmp[--n];
    return p;
}

static int in_text(uintptr_t a) { return a >= text_lo && a < text_hi; }

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig;
    (void)si;
    int saved = errno;
    ucontext_t *uc = uc_;
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    char line[24 + (MAX_FRAMES + 2) * 17];
    char *p = line;
    *p++ = 'S';
    *p++ = ' ';
    p = put_hex(p, (uintptr_t)getpid());
    *p++ = ' ';
    p = put_hex(p, ip);
    int on_stack = sp >= stack_lo && sp < stack_hi;
    if (on_stack && !in_text(ip)) {
        uintptr_t ret = *(uintptr_t *)sp;
        if (in_text(ret)) {
            *p++ = ' ';
            p = put_hex(p, ret);
        }
    }
    /* Walk saved frame pointers while they stay on this stack, move
       toward its base and are word-aligned. */
    for (int n = 0; on_stack && n < MAX_FRAMES; n++) {
        if (fp < sp || fp + 16 > stack_hi || (fp & 7))
            break;
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (!ret)
            break;
        *p++ = ' ';
        p = put_hex(p, ret);
        if (next <= fp)
            break;
        fp = next;
    }
    *p++ = '\n';
    ssize_t r = write(out_fd, line, (size_t)(p - line));
    (void)r;
    errno = saved;
}

/* The first object dl_iterate_phdr reports is the executable. */
static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    uintptr_t *bias = data;
    *bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            text_lo = info->dlpi_addr + ph->p_vaddr;
            text_hi = text_lo + ph->p_memsz;
        }
    }
    return 1;
}

__attribute__((constructor)) static void sampler_init(void) {
    const char *path = getenv("SAMPLER_OUT");
    if (!path || !*path)
        return;
    out_fd = open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (out_fd < 0)
        return;

    uintptr_t bias = 0;
    dl_iterate_phdr(find_exe, &bias);
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void *addr;
        size_t size;
        if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
            stack_lo = (uintptr_t)addr;
            stack_hi = stack_lo + size;
        }
        pthread_attr_destroy(&attr);
    }

    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    char line[4200];
    char *p = line;
    *p++ = 'B';
    *p++ = ' ';
    p = put_hex(p, (uintptr_t)getpid());
    *p++ = ' ';
    p = put_hex(p, bias);
    *p++ = ' ';
    size_t len = strlen(exe);
    memcpy(p, exe, len);
    p += len;
    *p++ = '\n';
    ssize_t r = write(out_fd, line, (size_t)(p - line));
    (void)r;

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    /* Ask for 1 kHz; the kernel rounds up to its tick. */
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}
