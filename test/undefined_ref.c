int f(int);
int main(void) { return f(1); }
